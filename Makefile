# Tier-1 verification in one command: `make test` runs vet, the
# allocation guards (without the race detector, under which they skip)
# and the full suite under the race detector;
# `make build` compiles everything; `make bench` runs every Go benchmark
# (the end-to-end record is written by `go run ./bench`, not by make);
# `make fuzz-smoke` fuzzes the SRJ codec, the shared lexer against its
# reference, the SPARQL, Turtle and N-Triples parsers, the traceparent
# parser and the rewrite-plan template's bind briefly;
# `make check-metrics` smoke-tests the /metrics exposition against a live
# mediator binary; `make bench-exit` checks that short benchmark runs
# exit by themselves, answer correctly and leave no process behind; `make examples` runs every example end to end; `make loc`
# counts non-test Go lines outside bench/ (find . -name '*.go' ! -name
# '*_test.go' ! -path './bench/*' | xargs cat | wc -l), then per internal/
# package, the measure of a change that deletes code.

GO ?= go

.PHONY: build test alloc-guards bench bench-smoke bench-exit fuzz-smoke vet staticcheck check-metrics examples loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Optional deeper linting; CI installs staticcheck and runs this.
staticcheck:
	staticcheck ./...

# The allocation ceilings (testing.AllocsPerRun) skip themselves under the
# race detector, which allocates where the plain build does not, so they
# need a run of their own. A guard takes part by having Alloc in its name.
alloc-guards:
	$(GO) test -count=1 -run Alloc ./internal/...

test: vet alloc-guards
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Fast single-iteration benchmark pass (CI runs this): keeps every
# benchmark compiling and running, and asserts that the merge
# representative-cache benchmark and the tracing-overhead pair, which
# prices a traced request, stayed part of the sweep.
bench-smoke:
	@$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./... >bench-smoke.out 2>&1 || \
		{ cat bench-smoke.out; rm -f bench-smoke.out; exit 1; }
	@for b in BenchmarkE9_CorefLookup/MergeRep/RepCache \
			BenchmarkTracingOverhead/untraced BenchmarkTracingOverhead/traced; do \
		grep -q "$$b" bench-smoke.out || \
			{ echo "bench-smoke: $$b missing from the sweep" >&2; rm -f bench-smoke.out; exit 1; }; \
	done
	@cat bench-smoke.out; rm -f bench-smoke.out
	@echo "bench-smoke: every benchmark ran; representative-cache and tracing benchmarks present"

# A benchmark run must end by itself and answer right (CI runs this): the
# bench binary is built to a temporary path and run for 2 s of hot-churn,
# then 2 s of xvocab-join, each under timeout; the target fails if a run
# does not exit 0 within 5 minutes on its own, if its last line (the JSON
# summary) does not read "correct":true, or if any process of that binary
# is still running after it.
bench-exit:
	@dir=$$(mktemp -d); bin=$$dir/bench; \
	$(GO) build -o $$bin ./bench || { rm -rf $$dir; exit 1; }; \
	for w in hot-churn xvocab-join; do \
		status=0; \
		timeout -k 10 300 $$bin -workload $$w -trace 0 -seconds 2 -out $$dir/out >$$dir/log 2>&1 || status=$$?; \
		left=$$(pgrep -f "^$$bin" | tr '\n' ' '); \
		[ -z "$$left" ] || pkill -KILL -f "^$$bin"; \
		correct=$$(tail -n 1 $$dir/log | grep -c '"correct":true'); \
		if [ $$status -ne 0 ] || [ -n "$$left" ] || [ $$correct -ne 1 ]; then \
			cat $$dir/log; rm -rf $$dir; \
			echo "bench-exit: $$w: exit status $$status (124 is the timeout), processes left running: [$$left], last line correct: $$correct" >&2; exit 1; \
		fi; \
		tail -n 1 $$dir/log; \
	done; \
	rm -rf $$dir; \
	echo "bench-exit: each run exited 0 by itself, answered correctly and left no process running"

# Ten seconds of each fuzz target (CI runs this): the SRJ decoder against
# its encoding/json reference, the encoder's round trip, the slicing lexer
# against the builder-based reference it replaced (same tokens, values and
# positions; seeded from the three parsers' corpora), the SPARQL,
# Turtle and N-Triples parsers' parse → format → parse fixpoints, the
# inbound traceparent parser and a rewrite-plan template's bind against
# the direct rewrite, each starting from the corpus under its
# package's testdata/fuzz. go test fuzzes one target of one package per
# invocation, so a target is listed as package:name.
FUZZ_TARGETS = ./internal/srjson:FuzzStreamDecoder ./internal/srjson:FuzzAppendRow \
	./internal/lex:FuzzLexer ./internal/sparql:FuzzParseFormat ./internal/obs:FuzzParseTraceparent \
	./internal/turtle:FuzzParseTurtle ./internal/ntriples:FuzzParseNTriples \
	./internal/core:FuzzTemplateBind

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run xxx -fuzz "^$${t#*:}$$" -fuzztime 10s "$${t%%:*}" || exit 1; \
	done

# End-to-end observability smoke test: boot the real binary on a free
# port, run one planner-selected federated query, scrape /metrics and
# assert the core series from every layer are present and non-zero.
check-metrics:
	@./scripts/check_metrics.sh

# Every example end to end (CI runs this): each starts its endpoints and
# mediator on loopback, prints its report and must exit 0. A failing
# example's report is printed.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d >examples.out 2>&1 || \
			{ cat examples.out; rm -f examples.out; echo "examples: $$d failed" >&2; exit 1; }; \
		echo "examples: $$d ok"; \
	done; rm -f examples.out

# Non-test Go lines: the total outside bench/, then each internal/ package.
loc:
	@echo "outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@for d in internal/*/; do \
		printf '%-22s %6d\n' "$$d" "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done
