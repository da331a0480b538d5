package benchhot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
)

// Ingest benchmark bodies: the soak workload of BENCH.json's ingest
// entries. One op is one 4096-event batch poured into a shared sharded
// accumulator; the headline metric is the aggregate events/s rate
// (reported via b.ReportMetric, so it lands in BenchmarkResult.Extra and
// the ledger), which `make bench-gate` holds to the 1M events/s floor at
// 4-way parallelism.

const (
	// ingestDomain is the event domain of the soak workload — large
	// enough for a realistic shard fan-out, small enough to stay on the
	// dense backing (the production fast path).
	ingestDomain = 1 << 16
	// ingestBatchLen is the events-per-batch of one benchmark op,
	// matching the decoder's internal flush granularity's order of
	// magnitude so per-batch overhead is realistic, not amortized away.
	ingestBatchLen = 4096
)

// ingestBatches returns one pre-generated event batch per worker, so the
// timed region measures ingestion only.
func ingestBatches(workers int) [][]int32 {
	batches := make([][]int32, workers)
	for w := range batches {
		r := rng.New(uint64(w)*2 + 1)
		batch := make([]int32, ingestBatchLen)
		for i := range batch {
			batch[i] = int32(r.Intn(ingestDomain))
		}
		batches[w] = batch
	}
	return batches
}

// IngestSoak measures aggregate accumulator ingest throughput: workers
// goroutines pour pre-generated batches into ONE shared accumulator —
// the contention profile of a live firehose fanned across HTTP handler
// goroutines, with the decode layer factored out. Reports events/s.
func IngestSoak(b *testing.B, workers int) {
	acc, err := stream.NewAccumulator(stream.AccumConfig{N: ingestDomain})
	if err != nil {
		b.Fatal(err)
	}
	batches := ingestBatches(workers)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := b.N / workers
		if w < b.N%workers {
			share++
		}
		wg.Add(1)
		go func(batch []int32, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				acc.Ingest(batch)
			}
		}(batches[w], share)
	}
	wg.Wait()
	b.StopTimer()
	events := int64(b.N) * ingestBatchLen
	if got := acc.TotalEvents(); got != events {
		b.Fatalf("conservation violated: ingested %d events, accumulator accounts %d", events, got)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// IngestDecodeBinary measures the full wire→tally path for the binary
// format: one op decodes a 4096-event length-prefixed frame straight
// into the accumulator. Reports events/s.
func IngestDecodeBinary(b *testing.B) {
	batch := ingestBatches(1)[0]
	var payload bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	payload.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(batch)))])
	for _, v := range batch {
		payload.Write(tmp[:binary.PutUvarint(tmp[:], uint64(v))])
	}
	ingestDecode(b, payload.Bytes(), func(r *bytes.Reader, sink func([]int32)) (int64, error) {
		return stream.DecodeBinary(r, ingestDomain, 0, sink)
	})
}

// IngestDecodeNDJSON is the same wire→tally path for ndjson: one op
// decodes a 4096-line payload of bare integers. Reports events/s.
func IngestDecodeNDJSON(b *testing.B) {
	batch := ingestBatches(1)[0]
	var sb strings.Builder
	for _, v := range batch {
		fmt.Fprintf(&sb, "%d\n", v)
	}
	ingestDecode(b, []byte(sb.String()), func(r *bytes.Reader, sink func([]int32)) (int64, error) {
		return stream.DecodeNDJSON(r, ingestDomain, sink)
	})
}

func ingestDecode(b *testing.B, payload []byte, decode func(*bytes.Reader, func([]int32)) (int64, error)) {
	acc, err := stream.NewAccumulator(stream.AccumConfig{N: ingestDomain})
	if err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(payload)
		applied, err := decode(r, acc.Ingest)
		if err != nil {
			b.Fatal(err)
		}
		if applied != ingestBatchLen {
			b.Fatalf("applied %d events, want %d", applied, ingestBatchLen)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*ingestBatchLen/b.Elapsed().Seconds(), "events/s")
}
