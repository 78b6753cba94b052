# WSPeer build targets. Everything is stdlib-only Go; these are
# conveniences, not requirements. `make check` is the pre-commit gate:
# it vets and runs the full test suite under the race detector.

GO ?= go
BENCH_BASELINE ?= bench_baseline.json

.PHONY: all help build vet test race bench bench-baseline bench-compare bench-throughput harness chaos fuzz-smoke examples loc clean check

all: build vet test

help:
	@echo "WSPeer make targets:"
	@echo "  check            vet + full test suite under -race, then vet + test of the"
	@echo "                   benchmark module in bench/ (the pre-commit gate)"
	@echo "  build/vet/test   the individual pieces of 'all'"
	@echo "  bench            run every Go benchmark with -benchmem"
	@echo "  bench-baseline   regenerate $(BENCH_BASELINE) (experiments A3+A4)."
	@echo "                   The baseline is machine-specific: regenerate it on the"
	@echo "                   machine that will run bench-compare, and regenerate it"
	@echo "                   whenever an intentional perf change moves ns/op or"
	@echo "                   allocs/op — allocs in particular are exact, so a stale"
	@echo "                   baseline fails bench-compare on a one-alloc drift."
	@echo "  bench-compare    re-measure and fail on >20% regression vs the baseline"
	@echo "  bench-throughput throughput experiments (A4) in calls/sec"
	@echo "  harness          regenerate every experiment table (E1-E10, A1-A4, R1, R2)"
	@echo "  chaos            the deterministic chaos suite under -race"
	@echo "  fuzz-smoke       ten seconds of native fuzzing on each fuzz target (P2PS frame"
	@echo "                   decoder, XML parser against encoding/xml)"
	@echo "  examples         run every example program once"
	@echo "  loc              count lines of Go"

# The pre-commit gate: static analysis plus the racy test suite, then the
# benchmark module (bench/ has its own go.mod, so ./... does not reach it):
# a signature change to anything bench/ imports fails here, before the
# benchmark driver does.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B benchmark per experiment (see DESIGN.md §5).
bench:
	$(GO) test -bench . -benchmem ./...

# Capture the invocation fast-path and throughput measurements as the
# comparison baseline (calls/sec rides along in the JSON).
bench-baseline:
	$(GO) run ./cmd/benchharness -experiments A3,A4 -benchjson $(BENCH_BASELINE)

# Re-measure and fail loudly on a >20% ns/op or allocs/op regression
# against the saved baseline.
bench-compare:
	$(GO) run ./cmd/benchharness -experiments A3 -bench-compare $(BENCH_BASELINE)

# Throughput experiments (A4): cached vs uncached resolution and the
# scatter-gather burst, in calls per second.
bench-throughput:
	$(GO) run ./cmd/benchharness -experiments A4

# Regenerate every experiment table (E1-E10, A1-A4, R1, R2).
harness:
	$(GO) run ./cmd/benchharness

# The deterministic chaos suite (DESIGN.md §10, §14): seeded fault
# injection on a real HTTP invoke path with breaker+failover, resilience
# state-machine tests, server overload shedding, retry-budget storms,
# deadline propagation and hedged invocations — all under the race
# detector. The seeds are fixed in the tests; every run reproduces the
# same fault schedule bit for bit.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Overload|Breaker|Admission|Injector|Hedge|Budget|Deadline|Exchange|Callback|OneWay|Table|Future' . ./internal/resilience/ ./internal/httpd/ ./internal/core/ ./internal/pipeline/ ./internal/exchange/

# Ten seconds of native fuzzing on each target, seeded from the package's
# testdata/fuzz: long enough to catch a decoder that panics, a field that
# does not survive encode/decode or a document the XML parser and
# encoding/xml read differently, short enough for CI. `go test -fuzz` takes
# one target and one package at a time, hence the loop.
FUZZ_TARGETS = internal/p2ps:FuzzDecodeMessage internal/xmlutil:FuzzParseBytes

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} (./$${t%%:*}, 10s)"; \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}$$" -fuzztime=10s ./$${t%%:*} || exit 1; \
	done

# Run every example program once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/workflow
	$(GO) run ./examples/cactusmon
	$(GO) run ./examples/catnets
	$(GO) run ./examples/simulation -peers 300 -queries 50
	$(GO) run ./examples/observability

loc:
	@find . -name '*.go' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
