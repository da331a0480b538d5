package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// LedgerSchema identifies the BENCH.json wire format: one ledger for
// every recorded benchmark entry, hot path and ingest alike.
const LedgerSchema = "histbench-ledger/v1"

// The ledger gate's bounds. allocs/op gates every entry and is not
// host-scaled (allocation counts are deterministic per workload). A rate
// entry gates events/s downward; every other entry gates ns/op upward.
// RateFloor holds rate entries measured at gomaxprocs >= 4 to an
// absolute minimum whatever the ledger says, so regenerating the ledger
// on a slow host cannot erode the "millions of events/s" bar.
const (
	AllocTolerance = 0.10
	NsTolerance    = 0.15
	RateTolerance  = 0.30
	RateFloor      = 1_000_000
)

// LedgerEntry is one named benchmark body's record: the medians of its
// metrics over several testing.Benchmark runs, and the minimum cost of
// the host probe timed around those runs.
type LedgerEntry struct {
	// Layer names the layer the body exercises (draw, core, ingest).
	Layer string `json:"layer"`
	// GOMAXPROCS is the parallelism the entry was measured at. The gate
	// only compares entries measured at equal parallelism.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is set on rate entries only; its presence in the
	// ledger is what makes the entry gate events/s instead of ns/op.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// ProbeNs is the probe loop's minimum wall-clock cost per iteration
	// around the entry's runs. The ratio of two entries' probe costs is
	// how much slower the host ran for one than for the other.
	ProbeNs float64 `json:"probe_ns"`
	Note    string  `json:"note,omitempty"`
}

// Ledger is the schema of BENCH.json.
type Ledger struct {
	Schema  string                 `json:"schema"`
	Go      string                 `json:"go"`
	Host    string                 `json:"host"`
	Method  string                 `json:"method"`
	Entries map[string]LedgerEntry `json:"entries"`
}

// LoadLedger reads and validates a ledger file. Files in the earlier
// per-gate schemas (histbench-hotpath, histbench-ingest) are refused.
func LoadLedger(path string) (*Ledger, error) {
	payload, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(payload, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != LedgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, LedgerSchema)
	}
	if len(l.Entries) == 0 {
		return nil, fmt.Errorf("%s: no entries", path)
	}
	for name, e := range l.Entries {
		if e.ProbeNs <= 0 {
			return nil, fmt.Errorf("%s: entry %s has probe_ns %v, want > 0", path, name, e.ProbeNs)
		}
	}
	return &l, nil
}

// CompareLedger gates current entries against a committed ledger. A
// baseline entry missing from current is a violation (a silently
// dropped benchmark must not pass); entries only in current have no
// reference yet and are ignored until the ledger is regenerated.
//
// Entries measured at different GOMAXPROCS are not like-for-like and are
// skipped, each skip reported in the second return value so a log shows
// exactly which comparisons did not run. The third return value has one
// line per compared entry with its time metric's slowdown, raw and
// host-scaled, so a log shows how far every entry moved.
//
// Time metrics are compared host-scaled: the baseline's ns/op is
// multiplied, and its events/s divided, by the ratio of the current to
// the baseline probe cost before the bound applies.
func CompareLedger(baseline, current map[string]LedgerEntry) (violations, skipped, deltas []string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in the ledger but missing from current results", name))
			continue
		}
		if base.GOMAXPROCS != cur.GOMAXPROCS {
			skipped = append(skipped,
				fmt.Sprintf("%s: skipped — ledger measured at gomaxprocs %d, current at %d; regenerate the ledger on a machine with matching parallelism to re-arm this entry",
					name, base.GOMAXPROCS, cur.GOMAXPROCS))
			continue
		}
		if limit := float64(base.AllocsPerOp) * (1 + AllocTolerance); float64(cur.AllocsPerOp) > limit {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/op regressed %d -> %d (limit %.1f at %+.0f%% tolerance)",
					name, base.AllocsPerOp, cur.AllocsPerOp, limit, AllocTolerance*100))
		}
		scale := cur.ProbeNs / base.ProbeNs
		if base.EventsPerSec > 0 {
			scaled := base.EventsPerSec / scale
			deltas = append(deltas, fmt.Sprintf("%s: events/s %.4g -> %.4g, slowdown ×%.2f raw, ×%.2f host-scaled (limit ×%.2f)",
				name, base.EventsPerSec, cur.EventsPerSec, base.EventsPerSec/cur.EventsPerSec, scaled/cur.EventsPerSec, 1/(1-RateTolerance)))
			if limit := scaled * (1 - RateTolerance); cur.EventsPerSec < limit {
				violations = append(violations,
					fmt.Sprintf("%s: events/s regressed %.0f -> %.0f (host-scaled limit %.0f at -%.0f%% tolerance, gomaxprocs %d)",
						name, base.EventsPerSec, cur.EventsPerSec, limit, RateTolerance*100, base.GOMAXPROCS))
			}
			if cur.GOMAXPROCS >= 4 && cur.EventsPerSec < RateFloor {
				violations = append(violations,
					fmt.Sprintf("%s: events/s %.0f below the absolute floor %.0f at gomaxprocs %d",
						name, cur.EventsPerSec, float64(RateFloor), cur.GOMAXPROCS))
			}
			continue
		}
		scaled := base.NsPerOp * scale
		deltas = append(deltas, fmt.Sprintf("%s: ns/op %.4g -> %.4g, slowdown ×%.2f raw, ×%.2f host-scaled (limit ×%.2f)",
			name, base.NsPerOp, cur.NsPerOp, cur.NsPerOp/base.NsPerOp, cur.NsPerOp/scaled, 1+NsTolerance))
		if limit := scaled * (1 + NsTolerance); cur.NsPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (host-scaled limit %.0f at %+.0f%% tolerance, gomaxprocs %d)",
					name, base.NsPerOp, cur.NsPerOp, limit, NsTolerance*100, base.GOMAXPROCS))
		}
	}
	return violations, skipped, deltas
}
