# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test test-short conformance conformance-list bench bench-json bench-gate soak-smoke experiments experiments-quick examples fuzz fuzz-smoke race test-race vet lint lint-tools cover cover-json clean FORCE

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Static analysis beyond go vet: staticcheck plus a known-vulnerability
# scan, at pinned versions so CI runs are reproducible. Tool binaries are
# installed once into $(TOOLBIN) by lint-tools — NOT re-fetched by `go
# run` on every lint — so the network is only touched on a cold cache,
# the installed binaries land in CI's setup-go module/build cache, and a
# fetch failure (proxy down, checksum mismatch) is reported as exactly
# that instead of masquerading as a lint finding.
STATICCHECK_VERSION ?= v0.5.1
GOVULNCHECK_VERSION ?= v1.1.4
TOOLBIN ?= $(CURDIR)/.tools

$(TOOLBIN)/staticcheck:
	@GOBIN=$(TOOLBIN) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) \
		|| { echo "lint: TOOL FETCH FAILED for staticcheck@$(STATICCHECK_VERSION) (network/module proxy problem, NOT a lint finding)" >&2; exit 1; }

$(TOOLBIN)/govulncheck:
	@GOBIN=$(TOOLBIN) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) \
		|| { echo "lint: TOOL FETCH FAILED for govulncheck@$(GOVULNCHECK_VERSION) (network/module proxy problem, NOT a lint finding)" >&2; exit 1; }

lint-tools: $(TOOLBIN)/staticcheck $(TOOLBIN)/govulncheck

lint: lint-tools
	$(TOOLBIN)/staticcheck ./...
	$(TOOLBIN)/govulncheck ./...

# bench/ is its own module (histload imports internal/ packages), so
# `go test ./...` at the root skips it: vet and test it here too.
test: vet conformance
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Cross-engine conformance battery, with the engine set named EXPLICITLY:
# a registered engine missing from this list — or a listed engine missing
# from the registry — fails loudly instead of silently shrinking the
# table. Extend the list when registering a new engine, and keep every
# declaration in sync — `make conformance-list` diffs the Makefile
# defaults here, every CI workflow occurrence, and the in-code
# registries (core.Engines, serve.Workloads), failing on any drift.
CONFORMANCE_ENGINES ?= adk,cdkl22
CONFORMANCE_WORKLOADS ?= histogram,closeness

conformance:
	$(GO) test ./internal/core/ -run 'TestConformance' -conformance-engines=$(CONFORMANCE_ENGINES) -count=1

conformance-list:
	$(GO) run ./cmd/histbench -conformance-list .

# Full race-detector pass; the replicate driver (oracle.Fanout), which
# runs the adk sieve and the closeness tester, is the main concurrent
# code path.
race:
	$(GO) test -race ./...

test-race: race

test-short:
	$(GO) test -short ./...

# Micro-benchmarks and the E1–E15 tables via testing.B (quick mode).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the BENCH.json ledger: every hot-path and ingest entry's
# median over five runs, with the host probe timed around them.
bench-json:
	$(GO) run ./cmd/histbench -bench-json BENCH.json

# CI perf gate: re-measure every ledger entry and fail when allocs/op
# rose more than 10%, a rate entry's events/s fell more than 30% (or a
# 4-way rate is under 1M events/s), or another entry's ns/op rose more
# than 15%. Time metrics are scaled by the host probe; entries are
# compared only at equal gomaxprocs.
bench-gate:
	$(GO) run ./cmd/histbench -bench-gate BENCH.json

# Short-mode ingest soak under the race detector: concurrent writers,
# a racing snapshotter, and the conservation invariant (every
# acknowledged event lands in exactly one tally).
soak-smoke:
	$(GO) test -race -short -count=1 -run 'TestSoakIngestConservation' ./internal/stream/

# Full-fidelity experiment suite (minutes).
experiments:
	$(GO) run ./cmd/histbench -run all -v

experiments-quick:
	$(GO) run ./cmd/histbench -run all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/modelselection
	$(GO) run ./examples/selectivity
	$(GO) run ./examples/streamcheck
	$(GO) run ./examples/shapeaudit
	$(GO) run ./examples/abcompare

# Fuzz pass over the structural fuzz targets. FUZZTIME is per target:
# the default 15s is the local/CI smoke budget; the nightly workflow
# runs the same list at 5m per target with the discovered corpus cached
# across runs (see .github/workflows/nightly.yml).
FUZZTIME ?= 15s

fuzz:
	$(GO) test -fuzz=FuzzEngineSelection -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzRequestDecoder -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDecodeBody -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzFromBoundaries -fuzztime=$(FUZZTIME) ./internal/intervals/
	$(GO) test -fuzz=FuzzDomainAlgebra -fuzztime=$(FUZZTIME) ./internal/intervals/
	$(GO) test -fuzz=FuzzProjectTV -fuzztime=$(FUZZTIME) ./internal/histdp/
	$(GO) test -fuzz=FuzzSegmentSweep -fuzztime=$(FUZZTIME) ./internal/histdp/
	$(GO) test -fuzz=FuzzSerializeRoundTrip -fuzztime=$(FUZZTIME) ./histtest/
	$(GO) test -fuzz=FuzzDenseSparseEquivalence -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -fuzz=FuzzSamplerBatchTally -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -fuzz=FuzzReplayBatchTally -fuzztime=$(FUZZTIME) ./internal/oracle/
	$(GO) test -fuzz=FuzzIngestDecoder -fuzztime=$(FUZZTIME) ./internal/stream/

# Quick fuzz smoke for CI: the differential targets that guard the wire
# format, the dense/sparse counting crossover, the fused exact-draw
# tally against the per-draw sampler, the replay batch kernel against
# the per-draw replay, the request-body decoder against encoding/json,
# and the one-sweep segment DP against the layer-by-layer recurrence.
fuzz-smoke:
	$(GO) test -fuzz=FuzzSerializeRoundTrip -fuzztime=10s ./histtest/
	$(GO) test -fuzz=FuzzDenseSparseEquivalence -fuzztime=10s ./internal/oracle/
	$(GO) test -fuzz=FuzzSamplerBatchTally -fuzztime=10s ./internal/oracle/
	$(GO) test -fuzz=FuzzReplayBatchTally -fuzztime=10s ./internal/oracle/
	$(GO) test -fuzz=FuzzDecodeBody -fuzztime=10s ./internal/serve/
	$(GO) test -fuzz=FuzzSegmentSweep -fuzztime=10s ./internal/histdp/

# Coverage ratchet: measure statement coverage and fail when it drops
# more than 1pt — total or per-package — below the committed
# COVERAGE.json floor. cover-json regenerates the floor (commit the
# result when coverage legitimately moves).
COVERPROFILE ?= cover.out

$(COVERPROFILE): FORCE
	$(GO) test -count=1 -coverprofile=$(COVERPROFILE) ./...

cover: $(COVERPROFILE)
	$(GO) run ./cmd/histbench -cover-profile $(COVERPROFILE) -cover-gate COVERAGE.json

cover-json: $(COVERPROFILE)
	$(GO) run ./cmd/histbench -cover-profile $(COVERPROFILE) -cover-json COVERAGE.json

FORCE:

clean:
	$(GO) clean ./...
	rm -f $(COVERPROFILE)
	rm -rf $(TOOLBIN)
