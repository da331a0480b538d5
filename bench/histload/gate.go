package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// gate is the correctness check run before any timing. It serves the
// workload's first requests, runs the same requests in-process, and
// requires the verdicts to be bit-identical; then it serves the first
// request again and requires the same body apart from elapsed_ms. It
// returns one named message per failed check; an error means the gate
// could not run at all.
func gate(ctx context.Context, hc *http.Client, base string, w workload) ([]string, error) {
	var fails []string
	var first []byte
	for i := range w.gateRequests() {
		status, body, err := do(ctx, hc, base, w.request(i))
		if err != nil {
			return nil, fmt.Errorf("gate request %d: %w", i, err)
		}
		if i == 0 {
			first = body
		}
		if status != http.StatusOK {
			fails = append(fails, fmt.Sprintf("served-status: request %d answered %d: %s", i, status, body))
			continue
		}
		served, err := w.parse(body)
		if err != nil {
			fails = append(fails, fmt.Sprintf("served-verdict: request %d: %v", i, err))
			continue
		}
		direct, _, err := w.direct(ctx, i)
		if err != nil {
			fails = append(fails, fmt.Sprintf("direct-run: request %d: %v", i, err))
			continue
		}
		if err := sameVerdict(served, direct); err != nil {
			fails = append(fails, fmt.Sprintf("served-vs-direct: request %d: %v", i, err))
		}
	}

	status, again, err := do(ctx, hc, base, w.request(0))
	if err != nil {
		return nil, fmt.Errorf("gate repeat: %w", err)
	}
	a, errA := withoutElapsed(first)
	b, errB := withoutElapsed(again)
	if status != http.StatusOK || errA != nil || errB != nil || !bytes.Equal(a, b) {
		fails = append(fails, fmt.Sprintf("repeat-identical: request 0 answered\n  %s\nthen\n  %s", first, again))
	}
	return fails, nil
}

// sameVerdict reports how a served verdict differs from the direct one.
func sameVerdict(served, direct verdict) error {
	if bytes.Equal(served.canon, direct.canon) {
		return nil
	}
	return fmt.Errorf("served\n  %s\ndirect\n  %s", served.canon, direct.canon)
}
