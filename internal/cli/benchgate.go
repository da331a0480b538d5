package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// HotpathSchema identifies the BENCH_hotpath.json wire format.
//
// v2 moves gomaxprocs from the report header to each result entry: the
// v1 report recorded one process-wide value, which made the parallel
// benchmark's numbers unreadable (a file regenerated under GOMAXPROCS=1
// showed the "parallel" hot path at serial speed with nothing marking it
// as degenerate). With per-entry values the gate can refuse to compare
// measurements taken at different parallelism instead of flagging a
// phantom regression — or worse, blessing a real one.
const HotpathSchema = "histbench-hotpath/v2"

// HotpathResult is one benchmark line of a hot-path report.
type HotpathResult struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GOMAXPROCS is the parallelism the entry was measured at (the
	// effective worker fan-out of the benchmark body, 1 for serial
	// benchmarks regardless of the process setting). The gate only
	// compares entries measured at equal parallelism.
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
}

// HotpathReport is the schema of BENCH_hotpath.json. Baseline holds the
// pre-pooling numbers recorded once (PR 2, before the arena/pool work
// landed) so regeneration preserves the reference point the current
// numbers are compared against.
type HotpathReport struct {
	Schema   string                   `json:"schema"`
	Go       string                   `json:"go"`
	Workload string                   `json:"workload"`
	Baseline map[string]HotpathResult `json:"baseline_pre_pooling"`
	Results  map[string]HotpathResult `json:"results"`
}

// LoadHotpathReport reads and validates a hot-path report file.
func LoadHotpathReport(path string) (*HotpathReport, error) {
	payload, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep HotpathReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != HotpathSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, HotpathSchema)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return &rep, nil
}

// CompareHotpath gates current benchmark results against a committed
// baseline. A baseline benchmark missing from current is always a
// violation (a silently dropped benchmark must not pass the gate).
// Benchmarks only in current are ignored — they have no reference yet
// and start gating once the baseline is regenerated.
//
// Two metrics gate, both as fractional tolerances (0.10 = +10%):
//
//   - allocs/op against allocTolerance. Allocation counts are
//     deterministic per workload, so this reproduces everywhere.
//   - ns/op against nsTolerance (disabled when nsTolerance <= 0).
//     Wall clock is noisier, so its tolerance should be wider (the CI
//     gate uses 15%).
//
// Both comparisons require the entries' GOMAXPROCS to match: numbers
// measured at different parallelism are not comparable (a serial re-run
// of a parallel baseline would always "regress", and a parallel re-run
// of a serial baseline would mask real regressions). Mismatched entries
// are skipped, not violated — regenerate the committed report to adopt
// the new parallelism as the reference. Every skip is REPORTED in the
// second return value: a silent skip let a regenerated report quietly
// stop gating a benchmark, so CI logs must show exactly which
// comparisons did not run and why.
func CompareHotpath(baseline, current map[string]HotpathResult, allocTolerance, nsTolerance float64) (violations, skipped []string) {
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
				fmt.Sprintf("%s: present in baseline but missing from current results", name))
			continue
		}
		if base.GOMAXPROCS != cur.GOMAXPROCS {
			// Not like-for-like; no comparison is meaningful (typically the
			// current machine cannot provide the baseline's parallelism).
			skipped = append(skipped,
				fmt.Sprintf("%s: skipped — baseline measured at gomaxprocs %d, current at %d; regenerate the report on a machine with matching parallelism to re-arm this gate",
					name, base.GOMAXPROCS, cur.GOMAXPROCS))
			continue
		}
		allocLimit := float64(base.AllocsPerOp) * (1 + allocTolerance)
		if float64(cur.AllocsPerOp) > allocLimit {
			violations = append(violations,
				fmt.Sprintf("%s: allocs/op regressed %d -> %d (limit %.1f at %+.0f%% tolerance)",
					name, base.AllocsPerOp, cur.AllocsPerOp, allocLimit, allocTolerance*100))
		}
		if nsTolerance > 0 {
			nsLimit := base.NsPerOp * (1 + nsTolerance)
			if cur.NsPerOp > nsLimit {
				violations = append(violations,
					fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (limit %.0f at %+.0f%% tolerance, gomaxprocs %d)",
						name, base.NsPerOp, cur.NsPerOp, nsLimit, nsTolerance*100, base.GOMAXPROCS))
			}
		}
	}
	return violations, skipped
}
