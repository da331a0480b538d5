package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
)

// writeCoverageJSON reduces a `go test -coverprofile` file to the
// committed COVERAGE.json ratchet baseline.
func writeCoverageJSON(profilePath, outPath string, stderr io.Writer) error {
	f, err := os.Open(profilePath)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := cli.ParseCoverProfile(f)
	if err != nil {
		return err
	}
	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(payload, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "histbench: wrote %s (total %.2f%%, %d packages)\n", outPath, rep.Total, len(rep.Packages))
	return nil
}

// coverTolerancePts is the statement-coverage drop, in percentage
// points, the ratchet allows per package and in total.
const coverTolerancePts = 1.0

// gateCoverage ratchets a fresh coverprofile against the committed
// baseline: drops beyond coverTolerancePts (total or per-package) fail
// the gate.
func gateCoverage(profilePath, baselinePath string, stdout, stderr io.Writer) (int, error) {
	baseline, err := cli.LoadCoverageReport(baselinePath)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(profilePath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	current, err := cli.ParseCoverProfile(f)
	if err != nil {
		return 0, err
	}

	violations, deltas, notes := cli.CompareCoverage(baseline, current, coverTolerancePts)
	fmt.Fprintf(stdout, "coverage vs %s (tolerance %.1fpt):\n", baselinePath, coverTolerancePts)
	for _, d := range deltas {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	for _, n := range notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "COVERAGE RATCHET VIOLATION: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "coverage ratchet: OK (total %.2f%% vs floor %.2f%%)\n",
			current.Total, baseline.Total-coverTolerancePts)
	}
	return len(violations), nil
}

// gateConformanceLists diffs every declared conformance list under root
// — the Makefile defaults and every CI workflow occurrence — against the
// in-code registries: core.Engines() for CONFORMANCE_ENGINES and
// serve.Workloads() for CONFORMANCE_WORKLOADS. A declaration that has
// drifted from the registry, or a file that stopped declaring the list
// at all, fails the gate.
func gateConformanceLists(root string, stdout, stderr io.Writer) (int, error) {
	var violations []string

	gather := func(varName string, registry []string) error {
		makefilePath := filepath.Join(root, "Makefile")
		makefile, err := os.ReadFile(makefilePath)
		if err != nil {
			return err
		}
		declared := cli.DeclaredLists("Makefile", string(makefile), varName)
		if len(declared) == 0 {
			violations = append(violations,
				fmt.Sprintf("Makefile: no %s declaration (the conformance battery has no pinned list)", varName))
		}

		workflows, err := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
		if err != nil {
			return err
		}
		inWorkflows := 0
		for _, wf := range workflows {
			payload, err := os.ReadFile(wf)
			if err != nil {
				return err
			}
			lists := cli.DeclaredLists(filepath.Base(wf), string(payload), varName)
			inWorkflows += len(lists)
			declared = append(declared, lists...)
		}
		if inWorkflows == 0 {
			violations = append(violations,
				fmt.Sprintf("ci workflows: no %s occurrence — CI would keep passing after the Makefile default drifts", varName))
		}

		violations = append(violations, cli.ListDrift(registry, declared)...)
		for _, d := range declared {
			fmt.Fprintf(stdout, "  %s = %v\n", d.Source, d.Names)
		}
		return nil
	}

	fmt.Fprintf(stdout, "conformance engine lists (registry: %v):\n", core.Engines())
	if err := gather("CONFORMANCE_ENGINES", core.Engines()); err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "conformance workload lists (registry: %v):\n", serve.Workloads())
	if err := gather("CONFORMANCE_WORKLOADS", serve.Workloads()); err != nil {
		return 0, err
	}

	for _, v := range violations {
		fmt.Fprintf(stderr, "CONFORMANCE LIST DRIFT: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintln(stdout, "conformance lists: OK (Makefile, CI workflows, and registries agree)")
	}
	return len(violations), nil
}
