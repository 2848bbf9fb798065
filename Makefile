GO ?= go

.PHONY: ci vet build test race perfbench bench-run bench bench-smoke fuzz-smoke oracle-check obs-smoke engine-smoke cancel-smoke codec-smoke serve-smoke metrics-smoke mcmm-smoke

ci: vet build test race perfbench bench-run bench-smoke fuzz-smoke obs-smoke engine-smoke cancel-smoke codec-smoke serve-smoke metrics-smoke mcmm-smoke oracle-check

# vet also fails on any tracked Go file that gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-bearing packages (worker-pool batch extraction,
# goroutine-per-corner CornerSet updates, the shared metrics recorder, the
# compile-once/schedule-many session engine, the context-threading flow, the
# zero-copy graph codec whose decoded slabs are shared across sessions, and
# the scheduler contract battery, which drives all three schedulers through
# the shared run scaffold and probes the stop hook from extraction workers)
# must stay race-clean. The second line runs the root-package corner-set
# equivalence/MCMM tests, which drive the concurrent per-corner propagation
# through the schedulers end to end.
race:
	$(GO) test -race ./internal/timing ./internal/core ./internal/obs ./internal/engine ./internal/flow ./internal/graphio ./internal/serve ./internal/sched
	$(GO) test -race -run 'Corner' .

# perfbench is a separate module, so the targets above never compile it.
# Vet it, and replay every workload's traced pass in short mode, including
# the RunFlow replica's bit-identity check: an exported-API change or a
# replica divergence fails here instead of in a benchmark run.
perfbench:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -short ./...

# The benchmark's own command, one short untraced run per workload: each
# must exit 0 and print "correct":true on its last line (about 35 s on a
# 2-vCPU host). It catches what make perfbench cannot, since that replays
# only the traced pass in short mode, where TestEndToEndOtherSeed skips.
bench-run:
	@for w in flow service ingest; do \
	    out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || \
	        { echo "bench-run: $$w exited non-zero"; echo "$$out"; exit 1; }; \
	    echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
	        { echo "bench-run: $$w did not report correct:true"; echo "$$out"; exit 1; }; \
	    echo "bench-run: $$w ok"; \
	done

bench:
	$(GO) test -bench 'ExtractEssentialBatch|IncrementalUpdate|SettledUpdate|CSRPropagation|Optimize' -benchmem .

# Run every benchmark body once, so a change that breaks a benchmark fails CI
# even though no timing is gated (about 4 s on a 2-vCPU host once the
# packages are built).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Short coverage-guided runs of five fuzz targets: every scheduler and every
# extraction primitive over mutated generator seeds, the netlist reader
# against its line-scanner reference on mutated netlists, reconnection
# trials decided on the launch→capture model against the per-trial Update,
# and the content hash against netio.Write's text under one-field design
# mutations. Any panic, invariant violation, unexplained optimality gap,
# reader divergence, trial disagreement, or hash that changes when the text
# does not (or the reverse) fails the run.
fuzz-smoke:
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime 30s
	$(GO) test ./internal/fuzz -run '^$$' -fuzz '^FuzzExtract$$' -fuzztime 30s
	$(GO) test ./internal/netio -run '^$$' -fuzz '^FuzzReadMatchesReference$$' -fuzztime 20s
	$(GO) test ./internal/timing -run '^$$' -fuzz '^FuzzClockTrial$$' -fuzztime 20s
	$(GO) test ./internal/graphio -run '^$$' -fuzz '^FuzzHashMatchesText$$' -fuzztime 20s

# The differential acceptance sweep: 1000 seeded adversarial netlists, each
# schedule checked against the independent LP oracle.
oracle-check:
	ORACLE_FUZZ_N=1000 $(GO) test ./internal/fuzz -run '^TestOracleAgreement$$' -v

# End-to-end observability smoke: run cssbench with tracing and the live
# debug server on a small bench, hit /debug/vars and /debug/pprof/ while it
# runs, then assert the Chrome trace is well-formed with round + worker-task
# span coverage.
OBS_TMP ?= /tmp/iterskew-obs-smoke
obs-smoke:
	rm -rf $(OBS_TMP) && mkdir -p $(OBS_TMP)
	$(GO) build -o $(OBS_TMP)/cssbench ./cmd/cssbench
	$(OBS_TMP)/cssbench -scale 0.01 -workers 2 \
	    -trace $(OBS_TMP)/trace.json -events $(OBS_TMP)/events.jsonl \
	    -httpaddr 127.0.0.1:6878 > $(OBS_TMP)/stdout.txt 2>&1 & \
	pid=$$!; vars=fail; pprof=fail; \
	for i in $$(seq 1 100); do \
	    if curl -sf http://127.0.0.1:6878/debug/vars | grep -q '"iterskew"'; then vars=ok; break; fi; \
	    kill -0 $$pid 2>/dev/null || break; sleep 0.05; \
	done; \
	curl -sf http://127.0.0.1:6878/debug/pprof/ > /dev/null && pprof=ok; \
	wait $$pid || { echo "obs-smoke: cssbench failed"; cat $(OBS_TMP)/stdout.txt; exit 1; }; \
	test $$vars = ok || { echo "obs-smoke: /debug/vars never served live counters"; exit 1; }; \
	test $$pprof = ok || { echo "obs-smoke: /debug/pprof/ not served"; exit 1; }; \
	echo "obs-smoke: /debug/vars ok, /debug/pprof/ ok"
	$(OBS_TMP)/cssbench -checktrace $(OBS_TMP)/trace.json
	@test -s $(OBS_TMP)/events.jsonl && echo "obs-smoke: events.jsonl non-empty"

# Cancellation smoke: an aggressively-bounded run must exit cleanly with a
# partial result — every row present, stop_reason recorded in the JSON, and
# at least one scheduler actually cut off by its deadline.
CANCEL_TMP ?= /tmp/iterskew-cancel-smoke
cancel-smoke:
	rm -rf $(CANCEL_TMP) && mkdir -p $(CANCEL_TMP)
	$(GO) build -o $(CANCEL_TMP)/cssbench ./cmd/cssbench
	$(CANCEL_TMP)/cssbench -scale 0.02 -designs superblue18 -timeout 5ms \
	    -json $(CANCEL_TMP)/bench.json > $(CANCEL_TMP)/stdout.txt 2>&1 || \
	    { echo "cancel-smoke: cssbench failed under -timeout"; cat $(CANCEL_TMP)/stdout.txt; exit 1; }
	@grep -q '"stop_reason": "deadline"' $(CANCEL_TMP)/bench.json || \
	    { echo "cancel-smoke: no run reported stop_reason=deadline"; cat $(CANCEL_TMP)/bench.json; exit 1; }
	@grep -c '"stop_reason"' $(CANCEL_TMP)/bench.json | grep -qx 5 || \
	    { echo "cancel-smoke: expected 5 rows (one per method)"; exit 1; }
	@echo "cancel-smoke: clean exit, partial results, deadline stop_reason recorded"

# Graph-codec smoke: generate a bench design, compile and save the graph
# artifact, then load it in a second process and schedule — cssbench exits
# non-zero if the decoded graph's schedule diverges bit-for-bit from an
# in-process compile.
CODEC_TMP ?= /tmp/iterskew-codec-smoke
codec-smoke:
	rm -rf $(CODEC_TMP) && mkdir -p $(CODEC_TMP)
	$(GO) build -o $(CODEC_TMP)/cssbench ./cmd/cssbench
	$(CODEC_TMP)/cssbench -scale 0.01 -designs superblue1 -savegraph $(CODEC_TMP)/graph.iskg
	$(CODEC_TMP)/cssbench -scale 0.01 -designs superblue1 -loadgraph $(CODEC_TMP)/graph.iskg
	@echo "codec-smoke: decoded graph schedules identically to in-process compile"

# Concurrent-session smoke: 8 simultaneous mixed-method scheduling sessions
# over one shared compiled graph, byte-compared against dedicated serial
# runs (cssbench exits non-zero on any divergence).
ENGINE_TMP ?= /tmp/iterskew-engine-smoke
engine-smoke:
	rm -rf $(ENGINE_TMP) && mkdir -p $(ENGINE_TMP)
	$(GO) build -o $(ENGINE_TMP)/cssbench ./cmd/cssbench
	$(ENGINE_TMP)/cssbench -scale 0.004 -sessions 8 -json $(ENGINE_TMP)/sessions.json
	@grep -q '"identical_to_serial": true' $(ENGINE_TMP)/sessions.json && \
	    echo "engine-smoke: 8 concurrent sessions identical to serial"

# Service smoke: boot the real iterskewd daemon on an ephemeral port, drive
# it with the cssbench load harness (4 clients x 6 jobs, streamed and plain),
# then SIGTERM it and require a clean drain. The harness exits non-zero if
# any HTTP answer diverges bitwise from an in-process run or a 429 arrives
# without Retry-After; the greps additionally require that backpressure
# actually fired (-maxinflight 1 under 4 clients must 429).
SERVE_TMP ?= /tmp/iterskew-serve-smoke
serve-smoke:
	rm -rf $(SERVE_TMP) && mkdir -p $(SERVE_TMP)
	$(GO) build -o $(SERVE_TMP)/iterskewd ./cmd/iterskewd
	$(GO) build -o $(SERVE_TMP)/cssbench ./cmd/cssbench
	$(SERVE_TMP)/iterskewd -addr 127.0.0.1:0 -maxinflight 1 \
	    -addrfile $(SERVE_TMP)/addr > $(SERVE_TMP)/daemon.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -s $(SERVE_TMP)/addr && break; \
	    kill -0 $$pid 2>/dev/null || { echo "serve-smoke: daemon died"; cat $(SERVE_TMP)/daemon.log; exit 1; }; \
	    sleep 0.05; done; \
	addr=$$(cat $(SERVE_TMP)/addr); \
	$(SERVE_TMP)/cssbench -scale 0.004 -designs superblue18 \
	    -serveaddr http://$$addr -load 4 -loadjobs 6 \
	    -json $(SERVE_TMP)/bench.json > $(SERVE_TMP)/load.txt 2>&1 || \
	    { echo "serve-smoke: load harness failed"; cat $(SERVE_TMP)/load.txt $(SERVE_TMP)/daemon.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon did not drain cleanly"; cat $(SERVE_TMP)/daemon.log; exit 1; }
	@grep -q '"identical_to_inprocess": true' $(SERVE_TMP)/bench.json || \
	    { echo "serve-smoke: HTTP results diverged from in-process runs"; cat $(SERVE_TMP)/bench.json; exit 1; }
	@grep -q '"rejected_429": 0,' $(SERVE_TMP)/bench.json && \
	    { echo "serve-smoke: no 429 under 4 clients vs maxinflight 1"; cat $(SERVE_TMP)/bench.json; exit 1; } || true
	@grep -q 'draining' $(SERVE_TMP)/daemon.log || \
	    { echo "serve-smoke: daemon log shows no drain"; cat $(SERVE_TMP)/daemon.log; exit 1; }
	@echo "serve-smoke: upload/schedule byte-identical over HTTP, backpressure fired, drained on SIGTERM"

# MCMM smoke: boot the real iterskewd daemon, post one three-corner job
# through the wire API, and have cssbench verify the single returned latency
# assignment against an independent LP-oracle graph per corner (non-negative
# hold worst slack in every corner, no setup degradation below the
# unscheduled floor) plus require corner_diff_rounds >= 1 — proof the union
# extraction path did real multi-corner work. cssbench exits non-zero on any
# of these, so the target only needs a clean boot/drain around it.
MCMM_TMP ?= /tmp/iterskew-mcmm-smoke
mcmm-smoke:
	rm -rf $(MCMM_TMP) && mkdir -p $(MCMM_TMP)
	$(GO) build -o $(MCMM_TMP)/iterskewd ./cmd/iterskewd
	$(GO) build -o $(MCMM_TMP)/cssbench ./cmd/cssbench
	$(MCMM_TMP)/iterskewd -addr 127.0.0.1:0 -maxinflight 4 \
	    -addrfile $(MCMM_TMP)/addr > $(MCMM_TMP)/daemon.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -s $(MCMM_TMP)/addr && break; \
	    kill -0 $$pid 2>/dev/null || { echo "mcmm-smoke: daemon died"; cat $(MCMM_TMP)/daemon.log; exit 1; }; \
	    sleep 0.05; done; \
	addr=$$(cat $(MCMM_TMP)/addr); \
	$(MCMM_TMP)/cssbench -scale 0.01 -designs superblue18 \
	    -serveaddr http://$$addr -corners 3 \
	    -json $(MCMM_TMP)/bench.json > $(MCMM_TMP)/mcmm.txt 2>&1 || \
	    { echo "mcmm-smoke: corner job failed the per-corner oracle gate"; \
	      cat $(MCMM_TMP)/mcmm.txt $(MCMM_TMP)/daemon.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "mcmm-smoke: daemon did not drain cleanly"; cat $(MCMM_TMP)/daemon.log; exit 1; }
	@grep -q '"oracle_ok_all_corners": true' $(MCMM_TMP)/bench.json || \
	    { echo "mcmm-smoke: mcmm block missing oracle verdict"; cat $(MCMM_TMP)/bench.json; exit 1; }
	@grep -q '"union_diff_rounds": 0' $(MCMM_TMP)/bench.json && \
	    { echo "mcmm-smoke: corners never diverged"; cat $(MCMM_TMP)/bench.json; exit 1; } || true
	@echo "mcmm-smoke: one assignment meets all 3 corners per the LP oracle, union path exercised"

# Telemetry smoke: boot iterskewd with an access log, push real traffic
# through it with the load harness (whose run embeds a two-scrape /metrics
# cross-check: exposition well-formedness via obs.ParseExposition, counter
# monotonicity across scrapes, and scraped-delta agreement with the client's
# own accounting — the harness exits non-zero if any of it fails), then
# independently re-scrape /metrics twice and assert the serve_jobs counter is
# present, sane, and did not move between two idle scrapes.
METRICS_TMP ?= /tmp/iterskew-metrics-smoke
metrics-smoke:
	rm -rf $(METRICS_TMP) && mkdir -p $(METRICS_TMP)
	$(GO) build -o $(METRICS_TMP)/iterskewd ./cmd/iterskewd
	$(GO) build -o $(METRICS_TMP)/cssbench ./cmd/cssbench
	$(METRICS_TMP)/iterskewd -addr 127.0.0.1:0 -maxinflight 2 \
	    -addrfile $(METRICS_TMP)/addr -accesslog $(METRICS_TMP)/access.jsonl \
	    > $(METRICS_TMP)/daemon.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -s $(METRICS_TMP)/addr && break; \
	    kill -0 $$pid 2>/dev/null || { echo "metrics-smoke: daemon died"; cat $(METRICS_TMP)/daemon.log; exit 1; }; \
	    sleep 0.05; done; \
	addr=$$(cat $(METRICS_TMP)/addr); \
	$(METRICS_TMP)/cssbench -scale 0.004 -designs superblue18 \
	    -serveaddr http://$$addr -load 3 -loadjobs 6 \
	    -json $(METRICS_TMP)/bench.json > $(METRICS_TMP)/load.txt 2>&1 || \
	    { echo "metrics-smoke: load harness (incl. /metrics cross-check) failed"; \
	      cat $(METRICS_TMP)/load.txt $(METRICS_TMP)/daemon.log; exit 1; }; \
	curl -sf http://$$addr/metrics > $(METRICS_TMP)/scrape1.txt || { echo "metrics-smoke: scrape 1 failed"; exit 1; }; \
	curl -sf http://$$addr/metrics > $(METRICS_TMP)/scrape2.txt || { echo "metrics-smoke: scrape 2 failed"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "metrics-smoke: daemon did not drain"; cat $(METRICS_TMP)/daemon.log; exit 1; }
	@grep -q '"exposition_valid": true' $(METRICS_TMP)/bench.json || \
	    { echo "metrics-smoke: exposition invalid"; cat $(METRICS_TMP)/bench.json; exit 1; }
	@grep -q '"counters_monotonic": true' $(METRICS_TMP)/bench.json || \
	    { echo "metrics-smoke: counters regressed between scrapes"; cat $(METRICS_TMP)/bench.json; exit 1; }
	@grep -q '"consistent_with_client": true' $(METRICS_TMP)/bench.json || \
	    { echo "metrics-smoke: scraped deltas disagree with client accounting"; cat $(METRICS_TMP)/bench.json; exit 1; }
	@jobs1=$$(grep '^iterskew_serve_jobs_total ' $(METRICS_TMP)/scrape1.txt | awk '{print $$2}'); \
	jobs2=$$(grep '^iterskew_serve_jobs_total ' $(METRICS_TMP)/scrape2.txt | awk '{print $$2}'); \
	test -n "$$jobs1" || { echo "metrics-smoke: serve_jobs_total missing from scrape"; exit 1; }; \
	test "$$jobs1" = "18" || { echo "metrics-smoke: serve_jobs_total=$$jobs1, want 18"; exit 1; }; \
	test "$$jobs1" = "$$jobs2" || { echo "metrics-smoke: idle counter moved: $$jobs1 -> $$jobs2"; exit 1; }
	@grep -q '"route":"jobs"' $(METRICS_TMP)/access.jsonl || \
	    { echo "metrics-smoke: access log has no jobs-route line"; cat $(METRICS_TMP)/access.jsonl; exit 1; }
	@echo "metrics-smoke: exposition valid, counters monotonic and consistent, access log written"
