# WSPeer build targets. Everything is stdlib-only Go; these are
# conveniences, not requirements. `make check` is the pre-commit gate:
# it vets and runs the full test suite under the race detector.

GO ?= go

.PHONY: all help build vet test race allocs bench chaos census fuzz-smoke examples loc clean check

all: build vet test

help:
	@echo "WSPeer make targets:"
	@echo "  check            vet + full test suite under -race, then vet + test of the"
	@echo "                   benchmark module in bench/ (the pre-commit gate)"
	@echo "  build/vet/test   the individual pieces of 'all'"
	@echo "  allocs           the allocation-count gates, without the race detector"
	@echo "  bench            run every Go benchmark with -benchmem (the system's numbers"
	@echo "                   come from the benchmark in bench/, see BENCHMARK.json)"
	@echo "  chaos            the deterministic chaos suite under -race"
	@echo "  census           the exported-identifier census (with the identifiers only tests"
	@echo "                   use), the Meta-key rule and the import layering (arch_test.go)"
	@echo "  fuzz-smoke       ten seconds of native fuzzing on each fuzz target (P2PS frame"
	@echo "                   decoder; XML scanner against its tree builder and encoding/xml;"
	@echo "                   xsd decoding from tokens against decoding from the tree;"
	@echo "                   WS-Addressing headers written, parsed and read back; SOAP"
	@echo "                   envelopes parsed, faults marshalled and parsed back; WSDL"
	@echo "                   documents parsed, marshalled and parsed back; query expressions"
	@echo "                   compiled and evaluated)"
	@echo "  examples         run every example program once"
	@echo "  loc              count lines of Go: non-test outside bench/, and everything;"
	@echo "                   fails when non-test Go is over the ceiling ROADMAP.md sets"

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

# The allocation-count gates (testing.AllocsPerRun): every one is in a test
# whose name holds "Allocs", and most skip themselves under the race
# detector, which allocates, so `check` alone never runs them.
allocs:
	$(GO) test -count=1 -run 'Allocs' ./...

# The Go benchmarks of the paths the paper's claims exercise, for use while
# working; the claims themselves are tests (claims_test.go, EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchmem ./...

# The deterministic chaos suite (DESIGN.md §10, §14): seeded fault
# injection on a real HTTP invoke path with breaker+failover, resilience
# state-machine tests, server overload shedding, retry-budget storms,
# deadline propagation and hedged invocations — all under the race
# detector. The seeds are fixed in the tests; every run reproduces the
# same fault schedule bit for bit.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Overload|Breaker|Admission|Injector|Hedge|Budget|Deadline|Exchange|Callback|OneWay|Table|Future' . ./internal/resilience/ ./internal/httpd/ ./internal/core/ ./internal/pipeline/ ./internal/exchange/

# The census of exported identifiers and option fields, the Meta-key rule
# and the import layering (arch_test.go): each fails on a finding; -v prints
# the tables and the identifiers only tests refer to.
census:
	$(GO) test -run 'TestCensus|TestMetaKeys|TestLayering' -v .

# Ten seconds of native fuzzing on each target, seeded from the package's
# testdata/fuzz or the target's own f.Add: long enough to catch a decoder
# that panics, a field that does not survive encode/decode, a document the
# XML scanner, its tree builder and encoding/xml do not read alike, a
# message the xsd plans decode differently from its bytes and from its tree,
# addressing headers that do not read back as they were written, a SOAP
# fault that changes on its way through marshal and parse, WSDL
# definitions that do, or a query expression the compiler crashes on or
# accepts past its length limit, short enough for CI. An input that newly
# widens coverage is minimized for at most 1 s (-fuzzminimizetime; Go's
# default is 60 s), so a target that finds something early goes on fuzzing
# instead of spending its 10 s minimizing. `go test -fuzz` takes one target
# and one package at a time, hence the loop.
FUZZ_TARGETS = internal/p2ps:FuzzDecodeMessage internal/xmlutil:FuzzParseBytes internal/xsd:FuzzDecodeBody internal/wsaddr:FuzzAddressingHeaders internal/soap:FuzzParseEnvelope internal/wsdl:FuzzParseWSDL internal/query:FuzzCompile

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} (./$${t%%:*}, 10s, minimizing 1s)"; \
		$(GO) test -run='^$$' -fuzz="^$${t#*:}$$" -fuzztime=10s -fuzzminimizetime=1s ./$${t%%:*} || exit 1; \
	done

# Run every example program once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/workflow
	$(GO) run ./examples/cactusmon
	$(GO) run ./examples/catnets
	$(GO) run ./examples/simulation -peers 300 -queries 50
	$(GO) run ./examples/observability

# Non-test Go outside bench/ is the size of the system itself (the number
# a net-deletion target reads); the total counts tests and bench/ too. The
# target fails when the system grows past the ceiling ROADMAP.md sets,
# 24,424 lines.
loc:
	@n=$$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' | xargs cat | wc -l); \
	echo "non-test Go outside bench/: $$n lines (ceiling 24424)"; \
	echo "all Go:                     $$(find . -name '*.go' -not -path './.bench_build/*' | xargs cat | wc -l) lines"; \
	test $$n -le 24424 || { echo "non-test Go is over its ceiling of 24424 lines"; exit 1; }

clean:
	$(GO) clean ./...
