package main

import (
	"fmt"
	"time"
)

// metricDef names a metric, its unit and which direction is better.
// BENCHMARK.json lists the same end-to-end and per-layer metrics, with
// their regression bounds.
type metricDef struct{ name, unit, better string }

// endToEndDefs are the metrics of the untraced pass that every workload
// reports: the ones a regression bound applies to. The time metrics are
// bounded in their _norm form, scaled to the reference host's speed by
// the host probe (see probe.go): on a shared machine the raw values
// drift by tens of percent over minutes, the normalized ones by a few.
// Latency is bounded per label, because the reference and the comb take
// different paths through a tester and a median over both falls between
// them.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps_norm", "req/s", "higher"},
	{"reference_p50_ms_norm", "ms", "lower"},
	{"comb_p50_ms_norm", "ms", "lower"},
	{"cpu_ms_per_op_norm", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// reportedDefs are end-to-end metrics printed beside endToEndDefs but
// carrying no bound: the raw time metrics and the probe they are
// normalized by; latency_p50_ms and latency_p90_ms, which pool both
// labels and so sit at the edge of a label's latency band on
// adk-sampler; error_rate, 0 on a healthy run (failures are counted in
// the result's failed field instead); latency_p99_ms, which needs 1000
// verdicts and only closeness-replay completes them; and the ingest
// metrics, which exist only on stream-mixed.
var reportedDefs = []metricDef{
	{"throughput_rps", "req/s", "higher"},
	{"reference_p50_ms", "ms", "lower"},
	{"comb_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"host_probe_ns", "ns", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"error_rate", "fraction", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"ingest_events_per_s", "events/s", "higher"},
	{"ingest_p50_ms", "ms", "lower"},
}

// perLayerDefs are the traced pass's metrics, layer by layer. A metric of
// a layer the workload does not run reads 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"serve.http_rtt_us", "us", "lower"},
		{"serve.decode_us", "us", "lower"},
		{"serve.resolve_us", "us", "lower"},
		{"serve.encode_us", "us", "lower"},
		{"serve.unaccounted_ms", "ms", "lower"},
		{"serve.status_429", "count", "lower"},
		{"serve.status_5xx", "count", "lower"},
		{"core.run_ms", "ms", "lower"},
	}
	for _, s := range stages {
		defs = append(defs,
			metricDef{"core." + s + ".ms", "ms", "lower"},
			metricDef{"core." + s + ".share", "fraction", "lower"},
			metricDef{"core." + s + ".samples", "count", "lower"})
	}
	return append(defs,
		metricDef{"core.sieve_rounds", "count", "lower"},
		metricDef{"core.run_share", "fraction", "lower"},
		metricDef{"oracle.samples_per_op", "count", "lower"},
		metricDef{"oracle.ns_per_sample", "ns", "lower"},
		metricDef{"oracle.exact_batches", "count", "lower"},
		metricDef{"oracle.closed_form_batches", "count", "lower"},
		metricDef{"oracle.dense_batches", "count", "lower"},
		metricDef{"oracle.sparse_batches", "count", "lower"},
		metricDef{"oracle.pool_hit_ratio", "fraction", "higher"},
		metricDef{"closeness.run_ms", "ms", "lower"},
		metricDef{"closeness.samples_per_op", "count", "lower"},
		metricDef{"closeness.partition_samples", "count", "lower"},
		metricDef{"closeness.test_samples", "count", "lower"},
		metricDef{"stream.decode_ns_per_event", "ns/event", "lower"},
		metricDef{"stream.ingest_ns_per_event", "ns/event", "lower"},
		metricDef{"stream.snapshot_ms", "ms", "lower"},
		metricDef{"stream.replay_build_ms", "ms", "lower"},
		metricDef{"stream.ingest_rejected", "count", "lower"},
		metricDef{"obs.trace_overhead_pct", "%", "lower"},
	)
}()

// passTotals sums a pass's lanes.
type passTotals struct {
	verdictLat, ingestLat []float64
	verdictObs            []observation
	ingestEvents          int64
	hasIngest             bool // the pass had an ingest lane
	attempted, failed     int
	status429, status5xx  int
	ingest429             int
	checkErrs             []string
}

func (p *passResult) totals() passTotals {
	var t passTotals
	for li := range p.lanes {
		st := &p.lanes[li]
		if st.verdicts {
			t.verdictLat = append(t.verdictLat, st.latMS...)
			t.verdictObs = append(t.verdictObs, st.obs...)
		} else {
			t.hasIngest = true
			t.ingestLat = append(t.ingestLat, st.latMS...)
			for _, o := range st.obs {
				t.ingestEvents += o.events
			}
			t.ingest429 += st.status429
		}
		t.attempted += st.attempted
		t.failed += st.failed
		t.status429 += st.status429
		t.status5xx += st.status5xx
		t.checkErrs = append(t.checkErrs, st.checkErrs...)
	}
	return t
}

// throughput is a pass's 2xx verdicts per second.
func (p *passResult) throughput() float64 {
	return float64(len(p.totals().verdictLat)) / p.window.Seconds()
}

// endToEnd computes the untraced pass's metrics. missing names the
// percentiles the sample could not support, with the reason.
func endToEnd(p *passResult, setups []float64) (vals map[string]float64, missing map[string]string) {
	t := p.totals()
	secs := p.window.Seconds()
	vals = map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": p.throughput(),
		"rss_peak_mb":    float64(p.rss) / (1 << 20),
		"host_probe_ns":  mean(p.probe),
	}
	if t.attempted > 0 {
		vals["error_rate"] = float64(t.failed) / float64(t.attempted)
	}
	if n := len(t.verdictLat); n > 0 {
		vals["cpu_ms_per_op"] = ms(p.cpu[1]-p.cpu[0]) / float64(n)
	}
	missing = map[string]string{}
	pct := func(name, what string, xs []float64, q float64) {
		if v, ok := percentile(xs, q); ok {
			vals[name] = v
		} else {
			missing[name] = fmt.Sprintf("%d %s leave fewer than %d beyond it", len(xs), what, minBeyond)
		}
	}
	pct("latency_p50_ms", "verdicts", t.verdictLat, 0.5)
	pct("latency_p90_ms", "verdicts", t.verdictLat, 0.9)
	pct("latency_p99_ms", "verdicts", t.verdictLat, 0.99)
	for _, l := range labels {
		pct(l+"_p50_ms", l+" verdicts", t.latencyOf(l), 0.5)
	}
	if probe := vals["host_probe_ns"]; probe > 0 {
		scale := probeRefNS / probe
		vals["throughput_rps_norm"] = vals["throughput_rps"] / scale
		for _, name := range []string{"reference_p50_ms", "comb_p50_ms", "cpu_ms_per_op"} {
			if v, ok := vals[name]; ok {
				vals[name+"_norm"] = v * scale
			} else if why, ok := missing[name]; ok {
				missing[name+"_norm"] = why
			}
		}
	}
	if !t.hasIngest {
		return vals, missing
	}
	vals["ingest_events_per_s"] = float64(t.ingestEvents) / secs
	pct("ingest_p50_ms", "ingests", t.ingestLat, 0.5)
	return vals, missing
}

// latencyOf returns the latencies of the verdicts with one label.
func (t *passTotals) latencyOf(label string) []float64 {
	var out []float64
	for j, o := range t.verdictObs {
		if o.label == label {
			out = append(out, t.verdictLat[j])
		}
	}
	return out
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	w             workload
	plain, traced *passResult
	trace         *traceSummary
	direct        []stepTimes // direct runs of the leading requests
	rttUS         []float64   // GET /healthz round trips on the idle server
	extra         map[string]float64
}

// perLayer computes the traced pass's metrics.
func perLayer(in layerInputs) map[string]float64 {
	var draws []float64
	for _, st := range in.direct {
		draws = append(draws, float64(st.samples))
	}
	step := func(f func(stepTimes) float64) float64 { return labelMedian(in.direct, f) }
	plain, traced := in.plain.totals(), in.traced.totals()
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	m["serve.http_rtt_us"] = median(in.rttUS)
	m["serve.decode_us"] = step(func(st stepTimes) float64 { return us(st.decode) })
	m["serve.resolve_us"] = step(func(st stepTimes) float64 { return us(st.resolve) })
	m["serve.encode_us"] = step(func(st stepTimes) float64 { return us(st.encode) })
	runMS := step(func(st stepTimes) float64 { return ms(st.run) })
	// HTTP, queue wait and contention: the untraced p50 latency less the
	// steps' direct p50s, each averaged over the labels.
	var lat []float64
	for _, l := range labels {
		if v, ok := percentile(plain.latencyOf(l), 0.5); ok {
			lat = append(lat, v)
		}
	}
	m["serve.unaccounted_ms"] = mean(lat) - (m["serve.decode_us"]+m["serve.resolve_us"]+m["serve.encode_us"])/1e3 - runMS
	m["serve.status_429"] = float64(plain.status429 + traced.status429)
	m["serve.status_5xx"] = float64(plain.status5xx + traced.status5xx)
	m["stream.ingest_rejected"] = float64(plain.ingest429 + traced.ingest429)
	if d := mean(draws); d > 0 {
		m["oracle.ns_per_sample"] = runMS * 1e6 / d
	}

	var samples, part, test []float64
	for _, o := range traced.verdictObs {
		samples = append(samples, float64(o.samples))
		part = append(part, float64(o.partition))
		test = append(test, float64(o.test))
	}
	m["oracle.samples_per_op"] = mean(samples)

	if in.w.tester() == "closeness" {
		m["closeness.run_ms"] = runMS
		m["closeness.samples_per_op"] = mean(samples)
		m["closeness.partition_samples"] = mean(part)
		m["closeness.test_samples"] = mean(test)
	} else {
		tr := in.trace
		m["core.run_ms"] = runMS
		for i, s := range stages {
			m["core."+s+".ms"] = tr.stageMS[i]
			m["core."+s+".share"] = tr.stageShare[i]
			m["core."+s+".samples"] = tr.stageSamples[i]
		}
		m["core.sieve_rounds"] = tr.sieveRounds
		// Means, not medians: a median over both labels falls between
		// their latency bands.
		if lat := mean(traced.verdictLat); lat > 0 {
			m["core.run_share"] = mean(tr.runMS) / lat
		}
		m["oracle.exact_batches"] = tr.exact
		m["oracle.closed_form_batches"] = tr.closedForm
		m["oracle.dense_batches"] = tr.dense
		m["oracle.sparse_batches"] = tr.sparse
		m["oracle.pool_hit_ratio"] = tr.poolHitRatio()
	}
	for k, v := range in.extra {
		m[k] = v
	}
	// Each pass's throughput is scaled by its own probe, so the host's
	// drift between the two passes does not count as overhead.
	if rps := in.plain.throughput() * mean(in.plain.probe); rps > 0 {
		m["obs.trace_overhead_pct"] = 100 * (rps - in.traced.throughput()*mean(in.traced.probe)) / rps
	}
	return m
}

// labelMedian is the mean over the labels of the median of f over each
// label's direct runs; direct run i has request i's label. A median over
// both labels would fall between their costs where those differ.
func labelMedian(direct []stepTimes, f func(stepTimes) float64) float64 {
	var per [len(labels)][]float64
	for i, st := range direct {
		per[labelOf(i)] = append(per[labelOf(i)], f(st))
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
