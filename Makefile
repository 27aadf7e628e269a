# Verification pipeline for the SXNM reproduction. `make check` is the
# full gate: vet, build, race-enabled tests, a one-iteration
# trace-overhead benchmark (compile + smoke, not a measurement), and a
# short fuzz pass over every parser in the tree.

GO       ?= go
GOFMT    ?= gofmt
FUZZTIME ?= 10s
BENCHN   ?= 1000

.PHONY: check vet build test smallspill fuzz-short bench bench-overhead bench-check bench-baseline daemon-smoke daemon-multi daemon-obs

check: vet build test smallspill bench-overhead fuzz-short

# perfbench/ is its own module, frozen between benchmark changes:
# vetting it fails any change that removes a symbol it compiles against.
# Any file gofmt would rewrite fails the gate too.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Run the whole suite with every table forced through the external-sort
# spill path (spill threshold 1): any behavioural difference between the
# in-memory and spilled engines fails an existing test.
smallspill:
	$(GO) test -race -tags=smallspill ./...

# Regenerate the committed BENCH_sxnm.json baseline: a deterministic
# movies corpus (seed 1, $(BENCHN) objects) run end to end with the
# observer attached; the run report IS the baseline. Compare a fresh
# report against the committed file to spot perf or accuracy drift.
# The report is written to a scratch path and MERGED into the baseline
# so what bench-baseline owns — the bench_ns_per_op map, the
# bench_layers ledger and the bench_machine stamp — survives the
# refresh.
bench:
	mkdir -p /tmp/sxnm-bench
	$(GO) run ./cmd/xmlgen -kind movies -n $(BENCHN) -seed 1 \
		-out /tmp/sxnm-bench/movies.xml -config-out /tmp/sxnm-bench/config.xml
	$(GO) run ./cmd/sxnm -config /tmp/sxnm-bench/config.xml \
		-input /tmp/sxnm-bench/movies.xml -stats -report /tmp/sxnm-bench/report.json
	SXNM_BENCH_MERGE=/tmp/sxnm-bench/report.json \
		$(GO) test -run 'TestBenchGuard$$' -count=1 .

# Guard the window-sweep hot path against perf regressions: re-measure
# the windowSweepCases benches and fail on >15% ns/op drift from the
# bench_ns_per_op baselines committed in BENCH_sxnm.json (plus a ≥1.5×
# 4-worker speedup bar on machines with ≥4 CPUs). It refuses to compare
# when the baseline's bench_machine stamp (GOOS, GOARCH, GOMAXPROCS, CPU
# model) is missing or names another host. bench-baseline re-records
# after an intentional perf change, or on a new machine.
bench-check:
	SXNM_BENCH_CHECK=1 $(GO) test -run 'TestBenchGuard$$' -count=1 -v .

bench-baseline:
	SXNM_BENCH_RECORD=1 $(GO) test -run 'TestBenchGuard$$' -count=1 .

# One iteration of the no-observer / metrics-only / full-trace
# benchmark trio. Proves the instrumented paths still run; use
# `go test -bench ObserverOverhead -benchtime 2s ./internal/core` for
# real overhead numbers.
bench-overhead:
	$(GO) test -run '^$$' -bench BenchmarkObserverOverhead -benchtime 1x ./internal/core

# Each fuzz target runs for $(FUZZTIME) with the unit tests filtered
# out (-run '^$$' keeps the corpus-only seeds from re-running twice).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xmltree
	$(GO) test -run '^$$' -fuzz FuzzCompilePattern -fuzztime $(FUZZTIME) ./internal/keygen
	$(GO) test -run '^$$' -fuzz FuzzNormalize -fuzztime $(FUZZTIME) ./internal/strutil
	$(GO) test -run '^$$' -fuzz FuzzCompileRule -fuzztime $(FUZZTIME) ./internal/rules
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/xpath
	$(GO) test -run '^$$' -fuzz 'FuzzReadGK$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzGKEscape$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzPairKey -fuzztime $(FUZZTIME) ./internal/similarity
	$(GO) test -run '^$$' -fuzz FuzzBoundSoundness -fuzztime $(FUZZTIME) ./internal/similarity
	$(GO) test -run '^$$' -fuzz FuzzMergeInvariants -fuzztime $(FUZZTIME) ./internal/extsort
	$(GO) test -run '^$$' -fuzz FuzzSpillRowCodec -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRowsFromTokens -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzJobConfigDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzLeaseDecode -fuzztime $(FUZZTIME) ./internal/server

# The daemon lifecycle end to end: start sxnmd in-process, submit over
# HTTP, SIGTERM it mid-run, assert a clean drain, restart over the same
# spool, and assert the job resumes and finishes.
daemon-smoke:
	$(GO) test -race -run 'TestDaemonSmoke' -count=1 -v ./cmd/sxnmd

# The observability surface under the race detector: per-job event
# journal (roundtrip, torn-tail repair, retention, kill-at-every-step),
# SSE replay/tail/resume, the /v1/fleet lease view, latency histogram
# semantics, and the Prometheus exposition linter over both exporters.
daemon-obs:
	$(GO) test -race -count=1 -v \
		-run 'TestJournal|TestReadJournal|TestEvent|TestFleet|TestDaemonMetricsLint' ./internal/server
	$(GO) test -race -count=1 -v \
		-run 'TestHist|TestPhase|TestSampleHeap|TestLint|TestRotating' ./internal/obs

# The multi-daemon differential, exhaustive: two daemons share a spool;
# daemon A is killed at EVERY durable I/O step (admission, lease claim,
# heartbeat, checkpoint, outcome) and also live-stalled mid-run; daemon
# B must take its jobs over and finish byte-identically to an
# uninterrupted run, while the fenced zombie writes nothing.
daemon-multi:
	DAEMON_MULTI_EXHAUSTIVE=1 $(GO) test -race -count=1 -v \
		-run 'TestTwoDaemonTakeoverDifferential|TestTakeoverKilledAtEveryStep' ./internal/server
