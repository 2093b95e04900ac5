GO ?= go

.PHONY: all build test check examples bench bench-diff race vet fmt-check deps-check fuzz-smoke trace-smoke serve-smoke serve-metrics-smoke results-check cache-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when a Go file anywhere in the tree (perfbench/
# included) is not gofmt-formatted, listing the files that are not.
fmt-check:
	@out=$$(gofmt -l .) && [ -z "$$out" ] || \
		{ echo "fmt-check: gofmt -l lists unformatted files:" >&2; echo "$$out" >&2; exit 1; }

# deps-check keeps tracing and the HTTP side out of the simulation
# packages: `go list -deps` of internal/mm, internal/workload,
# internal/serve, internal/event and internal/experiments must not list
# internal/xtrace, internal/obs or net/http. The simulation reports
# through event.Event; internal/obs draws the trace from those events
# and serves the expvars, so every binary that runs an experiment links
# neither unless it asks for them. It also keeps internal/metrics a leaf
# below serve: `go list -deps` of internal/metrics must list no addrxlat
# package but itself and internal/hist, so the window collector depends
# on nothing it observes and imports go only from serve to metrics.
deps-check:
	@bad=$$($(GO) list -deps ./internal/mm ./internal/workload ./internal/serve ./internal/event ./internal/experiments | \
		grep -x -e addrxlat/internal/xtrace -e addrxlat/internal/obs -e net/http); \
	if [ -n "$$bad" ]; then echo "deps-check: simulation packages depend on:" $$bad >&2; exit 1; fi; \
	bad=$$($(GO) list -deps ./internal/metrics | grep '^addrxlat/' | \
		grep -v -x -e addrxlat/internal/metrics -e addrxlat/internal/hist); \
	if [ -n "$$bad" ]; then echo "deps-check: internal/metrics is not a leaf; it depends on:" $$bad >&2; exit 1; fi; \
	echo "deps-check: no simulation package depends on internal/xtrace, internal/obs or net/http; internal/metrics imports only internal/hist"

# examples runs every program under examples/ and fails on the first
# nonzero exit: `go build ./...` only compiles them.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# race runs the race detector over the packages that actually spawn or
# share goroutines: the sweep worker pool, the experiment drivers that use
# it, the chunk ring the row executor streams through (its DetachFrom,
# Stop, refcount and publish-hook unit tests), the graph500 build, whose
# workers draw the R-MAT edges into disjoint blocks of one buffer, the
# observers that take events from the row executor's workers and the
# ring's producer at once (internal/obs: the recorder and the trace
# renderer), the span buffer's locked thread registry, the shared on-disk
# result cache, and the fault plan the sweep workers fire.
race:
	$(GO) test -race ./internal/parallel/ ./internal/experiments/ ./internal/workload/ ./internal/graph500/ ./internal/obs/ ./internal/xtrace/ ./internal/resultcache/ ./internal/faultinject/

# fuzz-smoke runs short fuzzing passes over the trace codec (seeded from
# testdata/fuzz), the TLB encoder (random kind, P, w and page-in/page-out
# scripts, every touched huge page decoded after each step), DenseLRU's
# column kernel (misses, victims, Len and Keys against a per-element
# AccessSlot twin, over fuzzed streams, chunkings, capacities and
# shifts), the recency stack's stamped warm-up (zone lengths, distinct
# keys, the recency list and a continuation's misses against a twin
# warmed by Access, over fuzzed capacities, windows, chunkings and stamp
# budgets), figures' -resume input (manifest bytes and the flags
# restored from them) and the ADDRXLAT_FAULTS plan parser, catching
# decoder, kernel and parser regressions without a dedicated fuzz farm.
# The resume fuzzer touches the file system per input, and the two
# policy fuzzers find new inputs faster than the default minimizing
# budget (60s each) lets them test them, so all three cap minimizing at
# 2s.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=20s ./internal/trace/
	$(GO) test -run=^$$ -fuzz=FuzzEncoderDecode -fuzztime=15s ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzDenseLRUColumn -fuzztime=15s -fuzzminimizetime=2s ./internal/policy/
	$(GO) test -run=^$$ -fuzz=FuzzRecencyStackStamp -fuzztime=15s -fuzzminimizetime=2s ./internal/policy/
	$(GO) test -run=^$$ -fuzz=FuzzResumeManifest -fuzztime=15s -fuzzminimizetime=2s ./cmd/figures/
	$(GO) test -run=^$$ -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/faultinject/

# bench runs the hot-path benchmarks with allocation reporting, teeing the
# output into a timestamped file under results/ so runs can be compared
# with benchstat later.
bench:
	@mkdir -p results
	$(GO) test -bench=. -benchmem -run=^$$ . | tee results/bench-$$(date -u +%Y%m%dT%H%M%SZ).txt

# bench-diff reruns the hot-path benchmarks and compares them against a
# named committed BENCH_*.json baseline, failing on a >10% ns/op
# regression in any hot-path benchmark (Access*, Fig1aBimodal, Replay*,
# TraceDecode). Its regex matches by prefix, so it also runs the
# attribution-armed kernels BenchmarkAccessBatchHugePageExplain and
# BenchmarkAccessBatchDecoupledExplain, which report "no baseline" until
# a baseline that records them is committed. It also measures,
# report-only, Figure 1's input generation: the Fig1bGraphWalk and
# Fig1cGraph500 panels, whose serial cost is their generators, and
# Graph500TraceGeneration, the f1c graph build plus its BFS excerpt. The baseline is pinned to a named anchor
# rather than whatever file is newest. BENCH_PR18.json was recorded on
# the current 2-vCPU host: its "before" is the tree before the sort-free
# graph500 build and the hoisted GraphWalk/Zipf constants and its
# "after" the tree with them, interleaved runs, best of 3 — so a run
# scores against those numbers on the same host, not against the 1-core
# host BENCH_PR6.json came from. Each benchmark runs -count=3 and
# benchdiff scores the best (lowest) ns/op per name — baselines are
# best-of numbers, and single runs on a noisy shared box swing 10-40%,
# so comparing one run against a best-of baseline would flap. The
# comparison is hand-rolled (cmd/benchdiff) — benchstat is deliberately
# not a dependency. Report lands in results/bench-diff.txt.
BENCH_BASELINE ?= BENCH_PR18.json
# BENCH_COUNT: runs per benchmark (best-of scoring). 3 is the CI default;
# on a noisy day run `make bench-diff BENCH_COUNT=8` — with too few
# samples a single slow window can fail an untouched benchmark.
BENCH_COUNT ?= 3
bench-diff:
	@mkdir -p results
	$(GO) test -run=^$$ -bench='Access(Batch)?(HugePage|Decoupled|THP|Superpage)|Fig1aBimodal|Fig1bGraphWalk|Fig1cGraph500|Graph500TraceGeneration|RowPipeline|ServeStep' -benchtime=1s -count=$(BENCH_COUNT) . > results/bench-raw.txt
	$(GO) test -run=^$$ -bench='ReplayStream|ReplayMaterialized' -benchtime=1s -count=$(BENCH_COUNT) ./internal/workload/ >> results/bench-raw.txt
	$(GO) test -run=^$$ -bench='TraceDecode' -benchtime=1s -count=$(BENCH_COUNT) ./internal/trace/ >> results/bench-raw.txt
	$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -out results/bench-diff.txt < results/bench-raw.txt

# trace-smoke runs one instrumented fig1a sweep with -trace (4 workers,
# sampling on): the row executor's events carry their wall-clock stage
# times, and obs draws the Perfetto trace and the straggler timeline from
# them. It then validates the exported Chrome trace-event JSON — schema,
# required keys, and per-timeline span nesting — with cmd/tracelint. The
# sweep's tables stay byte-identical with the trace armed (pinned by
# TestTraceByteIdentical); this target guards the other side: that the
# export itself stays loadable in Perfetto. It then runs one traced
# atsim simulation whose trace goes into a directory that does not exist
# yet (the run creates it, and the manifest names the trace only once it
# is written) and validates that trace too. Artifacts (traces + timeline
# TSVs + manifests) land in results/trace-smoke/, emptied first so the
# sweep simulates every cell instead of answering them from the cache
# an earlier run left there, and are uploaded by CI.
trace-smoke:
	@rm -rf results/trace-smoke && mkdir -p results/trace-smoke
	$(GO) run ./cmd/figures -fig f1a -workers 4 -sample 100000 \
		-out results/trace-smoke -manifest results/trace-smoke -cache results/trace-smoke/cache \
		-trace results/trace-smoke/figures.trace.json
	$(GO) run ./cmd/tracelint results/trace-smoke/figures.trace.json
	@test -s results/trace-smoke/f1a-bimodal.timeline.tsv || \
		{ echo "trace-smoke: missing timeline TSV" >&2; exit 1; }
	$(GO) run ./cmd/atsim -algo hugepage -h 4 -vpages 16384 -ram 1024 -tlb 64 -warmup 20000 -measure 20000 \
		-manifest results/trace-smoke/atsim -trace results/trace-smoke/atsim/trace/atsim.trace.json > /dev/null
	$(GO) run ./cmd/tracelint results/trace-smoke/atsim/trace/atsim.trace.json
	@grep -q '^  "trace": "results/trace-smoke/atsim/trace/atsim.trace.json"' results/trace-smoke/atsim/manifest-*.json && \
		test -s results/trace-smoke/atsim/atsim.timeline.tsv || \
		{ echo "trace-smoke: atsim's manifest does not name its trace, or its timeline TSV is missing" >&2; exit 1; }

# serve-smoke runs the serving-layer drill end-to-end: the sv1/sv2
# goodput+latency sweep (five offered loads per algorithm, up to 3×
# overload, so admission control and the degradation governor both
# engage), then the same sweep with a serve-burst fault fired on the
# first serve cell (a spike of 256 back-to-back arrivals, exercising
# admission and shedding; the result cache is bypassed by design while
# the fault is planned, so a clean run can never see a burst-perturbed
# point), then one `atsim -serve` cell (decoupled single-choice at 1.5×
# load with bursty arrivals and the window collector armed, so its
# retry path fires), and finally sanity checks: every grid point
# rendered a data row, no cell footnoted an error, the manifests carry
# the serve record (offered-load grid + governor config, and for atsim
# the token bucket) that makes the numbers auditable, and the atsim run
# printed its taxonomy, retried, and wrote its window dump, and its
# record carries the CPU time and phase record every run's record
# carries. Artifacts land in results/serve-smoke/ and are uploaded by CI.
serve-smoke:
	@rm -rf results/serve-smoke && mkdir -p results/serve-smoke/atsim
	$(GO) run ./cmd/figures -fig sv1,sv2 -seed 7 -out results/serve-smoke \
		-manifest results/serve-smoke -cache results/serve-smoke/cache -progress=false
	ADDRXLAT_FAULTS='serve-burst@1' $(GO) run ./cmd/figures -fig sv1 -seed 7 \
		-out results/serve-smoke/burst -manifest results/serve-smoke/burst \
		-cache results/serve-smoke/burst-cache -progress=false
	$(GO) run ./cmd/atsim -serve -algo decoupled -alloc single -vpages 16384 -ram 1024 -tlb 64 \
		-workload uniform -serve-load 1.5 -serve-arrivals burst -serve-metrics \
		-manifest results/serve-smoke/atsim > results/serve-smoke/atsim/atsim-serve.txt
	@test "$$(grep -c '^[0-9]' results/serve-smoke/sv-goodput.tsv)" -eq 20 || \
		{ echo "serve-smoke: sv-goodput.tsv is missing grid rows" >&2; exit 1; }
	@! grep -q 'error' results/serve-smoke/sv-goodput.tsv || \
		{ echo "serve-smoke: sv-goodput.tsv has footnoted error cells" >&2; exit 1; }
	@grep -q '"table": "sv-goodput"' results/serve-smoke/manifest-*.json && \
		grep -q '"governor"' results/serve-smoke/manifest-*.json || \
		{ echo "serve-smoke: manifest is missing the serve record" >&2; exit 1; }
	@grep -q '^taxonomy:  offered' results/serve-smoke/atsim/atsim-serve.txt && \
		grep -q '^           admitted' results/serve-smoke/atsim/atsim-serve.txt || \
		{ echo "serve-smoke: atsim -serve printed no taxonomy" >&2; exit 1; }
	@grep -Eq '^ +retries [1-9]' results/serve-smoke/atsim/atsim-serve.txt || \
		{ echo "serve-smoke: atsim -serve never retried" >&2; exit 1; }
	@test -s results/serve-smoke/atsim/atsim-serve.serve.metrics.tsv || \
		{ echo "serve-smoke: atsim -serve wrote no window dump" >&2; exit 1; }
	@grep -q '"table": "atsim-serve"' results/serve-smoke/atsim/manifest-*.json && \
		grep -q '"governor"' results/serve-smoke/atsim/manifest-*.json && \
		grep -q '"refill_div"' results/serve-smoke/atsim/manifest-*.json && \
		grep -q '"burst"' results/serve-smoke/atsim/manifest-*.json || \
		{ echo "serve-smoke: atsim manifest lacks the governor or the token bucket" >&2; exit 1; }
	@grep -q '"cpu_seconds"' results/serve-smoke/atsim/manifest-*.json && \
		grep -q '"phases"' results/serve-smoke/atsim/manifest-*.json || \
		{ echo "serve-smoke: atsim manifest's record lacks cpu_seconds or phases" >&2; exit 1; }

# serve-metrics-smoke runs the serving-telemetry drill: the sv3
# SLO-curve sweep (per-cell window collectors always armed) with -trace,
# so obs draws each cell's virtual-time threads from the sweep record,
# then validates the exported trace — including the
# serve request-lifecycle schema (queued/attempt/backoff spans nested in
# their request span, governor trip/clear instants alternating) — with
# cmd/tracelint, and sanity-checks every telemetry surface: all 20 grid
# rows present in sv-slo.tsv with the verdict columns, a non-empty
# per-window dump in sv-slo.serve.metrics.tsv, and the metrics policy
# (window/budget multiples, exemplar K) recorded in the manifest.
# Artifacts land in results/serve-metrics-smoke/ and are uploaded by CI.
serve-metrics-smoke:
	@rm -rf results/serve-metrics-smoke && mkdir -p results/serve-metrics-smoke
	$(GO) run ./cmd/figures -fig sv3 -seed 7 -out results/serve-metrics-smoke \
		-manifest results/serve-metrics-smoke -cache results/serve-metrics-smoke/cache \
		-trace results/serve-metrics-smoke/figures.trace.json -progress=false
	$(GO) run ./cmd/tracelint results/serve-metrics-smoke/figures.trace.json
	@test "$$(grep -c '^[0-9]' results/serve-metrics-smoke/sv-slo.tsv)" -eq 20 || \
		{ echo "serve-metrics-smoke: sv-slo.tsv is missing grid rows" >&2; exit 1; }
	@grep -q 'max_sustainable_load' results/serve-metrics-smoke/sv-slo.tsv || \
		{ echo "serve-metrics-smoke: sv-slo.tsv lacks the SLO verdict columns" >&2; exit 1; }
	@test "$$(grep -c '^[a-z]' results/serve-metrics-smoke/sv-slo.serve.metrics.tsv)" -ge 20 || \
		{ echo "serve-metrics-smoke: per-window dump is empty or truncated" >&2; exit 1; }
	@grep -q '"metrics_window_mul"' results/serve-metrics-smoke/manifest-*.json || \
		{ echo "serve-metrics-smoke: manifest lacks the metrics policy" >&2; exit 1; }

# results-check regenerates every registry table at the default scale,
# seed 1, with the result cache off, into a temporary directory, and
# fails when a table differs from its committed snapshot under results/
# or has no snapshot there. The per-window telemetry dump sv3 writes
# beside its table (*.serve.metrics.tsv) is not a table and is skipped.
# After a deliberate change to a table, regenerate its snapshot with
# `go run ./cmd/figures -fig <id> -no-cache -out results -manifest ""`.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/figures -fig all -seed 1 -no-cache -out "$$tmp" -manifest "" -progress=false > /dev/null && \
	status=0 && \
	for f in "$$tmp"/*.tsv; do \
		name=$$(basename "$$f"); \
		case "$$name" in *.serve.metrics.tsv) continue;; esac; \
		if [ ! -f "results/$$name" ]; then \
			echo "results-check: no snapshot results/$$name" >&2; status=1; \
		elif ! cmp -s "$$f" "results/$$name"; then \
			echo "results-check: results/$$name differs from a fresh run:" >&2; \
			diff "results/$$name" "$$f" >&2; status=1; \
		fi; \
	done; \
	[ $$status -eq 0 ] && echo "results-check: $$(ls "$$tmp"/*.tsv | grep -vc '\.serve\.metrics\.tsv$$') tables match results/"; \
	exit $$status

# cache-check runs Figure 1's panels, x1 and the serve sweeps twice,
# seed 1, against one fresh result cache in a temporary directory. Both
# passes must write every table byte-identical to its snapshot under
# results/ (and sv3's window dump identical to the first pass's), and the
# second pass's manifest must record no cache miss and no phase: every
# cell the first pass simulated, x1's cached rows included, is answered
# from the cache, and nothing is simulated (a cell that bypassed the
# cache would count no miss, but its row would record phases). The
# kill-and-resume drills read the cache too, but none runs x1.
cache-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/figures" ./cmd/figures && \
	for pass in 1 2; do \
		"$$tmp/figures" -fig f1a,f1b,f1c,x1,sv1,sv2,sv3 -seed 1 -cache "$$tmp/cache" \
			-out "$$tmp/out$$pass" -manifest "$$tmp/m$$pass" -progress=false > /dev/null || exit 1; \
		n=0; \
		for f in "$$tmp/out$$pass"/*.tsv; do \
			name=$$(basename "$$f"); \
			case "$$name" in *.serve.metrics.tsv) continue;; esac; \
			n=$$((n+1)); \
			cmp -s "$$f" "results/$$name" || \
				{ echo "cache-check: pass $$pass: $$name differs from results/$$name:" >&2; diff "results/$$name" "$$f" >&2; exit 1; }; \
		done; \
		[ $$n -eq 7 ] || { echo "cache-check: pass $$pass wrote $$n tables, want 7" >&2; exit 1; }; \
	done; \
	cmp -s "$$tmp/out1/sv-slo.serve.metrics.tsv" "$$tmp/out2/sv-slo.serve.metrics.tsv" || \
		{ echo "cache-check: sv3's window dump differs between the passes" >&2; exit 1; }; \
	grep -Eq '^    "misses": 0,?$$' "$$tmp"/m2/manifest-*.json || \
		{ echo "cache-check: the second pass missed the cache:" >&2; grep -A4 '"cache": {' "$$tmp"/m2/manifest-*.json >&2; exit 1; }; \
	! grep -q '"phases"' "$$tmp"/m2/manifest-*.json || \
		{ echo "cache-check: the second pass simulated cells it should have read from the cache" >&2; exit 1; }; \
	echo "cache-check: both passes match results/; the second answered every cell from the cache"

# check is the pre-commit gate: gofmt (fmt-check), vet, the import
# boundaries of the simulation packages and of the internal/metrics leaf
# (deps-check), full tests,
# race-detector pass over the concurrent packages, a 1-iteration
# benchmark smoke covering the scalar
# Access and batch AccessBatch kernels (the regex matches by prefix, so
# the attribution-armed *Explain variants run too) and Figure 1's input
# generation (the f1b and f1c panels and the graph500 build) so the benchmark
# harness itself can't rot, 1-iteration race-mode runs of the row
# executor on a full Figure 1a panel (ring producer goroutine +
# per-simulator workers) and of the decoupled AccessBatch kernel, bare
# and armed (its own miss buffer reused across chunks), a race-mode
# smoke of the row executor (Workers=4, 8 chunks against a ring depth of 4: ring
# publish/release, gate, observer event delivery, phase clock), the
# serving-layer overload + serve-burst drill (serve-smoke), the
# serving-telemetry drill (serve-metrics-smoke), a run of every example
# program (examples), the committed-snapshot comparison of every table
# (results-check), the two-pass result-cache drill over Figure 1, x1 and
# the serve sweeps (cache-check), and vet + tests of the benchmark harness in
# perfbench/ (its own module), so a change to an API the harness
# compiles against fails here rather than only in the benchmark run.
check: fmt-check vet deps-check test race serve-smoke serve-metrics-smoke examples results-check cache-check
	$(GO) test -bench='BenchmarkAccess(Batch)?(HugePage|Decoupled|THP|Superpage)|BenchmarkFig1bGraphWalk|BenchmarkFig1cGraph500|BenchmarkGraph500TraceGeneration' -benchtime=1x -run=^$$ .
	$(GO) test -race -bench=BenchmarkFig1aBimodal -benchtime=1x -run=^$$ .
	$(GO) test -race -bench=BenchmarkAccessBatchDecoupled -benchtime=1x -run=^$$ .
	$(GO) test -race -run=TestPipelinedRaceSmoke ./internal/experiments/
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
