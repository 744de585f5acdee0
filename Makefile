GO ?= go
DATE ?= $(shell date +%F)
COUNT ?= 5
# Hot-path benchmark set recorded in BENCH_<date>.json: the substrate
# micro-benchmarks, the end-to-end simulator replays (including one pass of
# the benchmark's sim.sweep workload, BenchmarkSweepPaperSizes), and the live
# HTTP-path benchmarks, skipping the long-running figure regenerations in the
# root package.
BENCH_PKGS = ./internal/cache ./internal/index ./internal/core ./internal/sim ./internal/proxy ./internal/integrity ./internal/workqueue ./internal/trace .
BENCH_FILTER = '^(BenchmarkAccess|BenchmarkAccessProxyOnly|BenchmarkCache[A-Z].*|BenchmarkIndexAddRemoveHot|BenchmarkIndexOrdered|BenchmarkApplyBatch|BenchmarkApplyBatchContended|BenchmarkShardedOrdered|BenchmarkSimulatorBAPS|BenchmarkSimulatorProxyOnly|BenchmarkSweepPaperSizes|BenchmarkHistogram|BenchmarkTraceStats|BenchmarkTraceRead|BenchmarkTraceReadBTR|BenchmarkLiveFetchHot|BenchmarkLiveFetchOriginMiss|BenchmarkLiveFetchOriginMissRegistered|BenchmarkLiveFetchRefetchRegistered|BenchmarkServerStartAnonymous|BenchmarkWorkqueue[A-Z].*|BenchmarkVerifierMiss|BenchmarkVerifierHit)$$'
# Replay/driver-suite benchmark set (§16): the whole experiment-driver suite
# timed as one unit (BenchmarkAllExperiments) plus out-of-core streaming
# replay throughput (BenchmarkReplayStream). benchtime=1x because one
# "iteration" is a full multi-second driver sweep.
REPLAY_BENCH_FILTER = '^(BenchmarkAllExperiments|BenchmarkReplayStream)$$'
REPLAY_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*_replay_baseline.json)))
REPLAY_RECORD ?= $(lastword $(sort $(filter-out %_baseline.json,$(wildcard BENCH_*_replay.json))))
# Packages touched by the interning/sharding refactor, the observability
# subsystem, the batched index publish pipeline, the crash-safe disk
# tier, and the background work plane, raced in `make check`.
HOT_PKGS = ./internal/intern ./internal/cache ./internal/index ./internal/core ./internal/sim ./internal/trace ./internal/proxy ./internal/obs ./internal/chaos ./internal/browser ./internal/diskstore ./internal/breaker ./internal/federation ./internal/workqueue
# The timing-sensitive live tests ROADMAP item 1 names: each waits on an
# event, never on a sleep, so it must pass every time. The body-store tests
# (internal/browser/bodies.go: one store shared by a host's agents), the
# direct-forward relay-session and hedging tests and the sibling
# invalidation fan-out ride along.
STABLE_TESTS = ^Test(ClusterBloomFalsePositive|DiskSpillStreamPromote|DiskWarmRestartGraceful|InvalidationChurnUnderLoad|HostLifecycleConcurrent|BatchedConcurrentStoreLosesNoDelta|StandaloneAndHostedPublishIdentically|ChurnBreakerMetricDeltas|BodyStoreSharesOnlyEqualBytes|BodyStoreInvariantsUnderChurn|HostedFetchesShareOneBody|ReadBodyAdoptsHeldCopy|RelaySessionContract|RelayTimeoutFallsThroughToUpstream|DirectForwardStreamedDelivery|HedgedOriginWinsOverSlowPeer|SiblingInvalidationFanout)$$
# The tests of the on-demand watermark values: the proxy's signing key and
# sign memo (internal/proxy/watermark.go) and the agents' verification memo
# (integrity.Verifier, shared per proxy key by an AgentHost).
WATERMARK_TESTS = ^TestWatermark(AnonymousFetchUnsigned|OnDemandMatchesSigner|ConcurrentFirstDemandsSignOnce|MemoAcrossReacquisition|MemoBounded|SignFailureFailsClosed)$$|^TestSigningKey(UngeneratedForAnonymous|ConcurrentFirstDemandsGenerateOnce|DurableBeforeFirstUse|IgnoresStaleTempFile|FailureFailsClosed)$$|^TestOnDemandWatermarkVerifiesAtAgents$$|^TestCrashRestartRederivesWatermark$$|^TestVerifier(MatchesVerifyDigest|Concurrent)$$|^TestVerifyMemo(StillDetectsTamper|RejectsAlteredMark|SharedByHostedAgents|ScopedToProxyKey)$$

.PHONY: all build fmt vet test race short bench check staticcheck bapsim-golden fuzz-smoke bench-baseline bench-compare bench-replay bench-replay-compare bench-e2e-smoke stream-smoke loadtest loadtest-agents loadtest-restart loadtest-federation loadtest-invalidation soak soak-smoke

all: build vet test

# Formatting gate: fails when gofmt would rewrite any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Gate for hot-path changes: gofmt-clean, vet everything, full tests, then
# the refactored packages again under the race detector (covers the
# sharded-index churn and live-proxy concurrency tests). staticcheck runs when installed (always in
# CI); locally it is skipped with a notice rather than failing the gate.
# The watermark memo tests (WATERMARK_TESTS: the sign and verify memo
# tests, not the older tamper-detection ones) share one memo across request
# goroutines, so they are raced ten times over, as are the STABLE_TESTS.
check: fmt vet test staticcheck
	$(GO) test -race $(HOT_PKGS)
	$(GO) test -race -count=10 -run '$(WATERMARK_TESTS)' ./internal/integrity ./internal/proxy ./internal/browser
	$(GO) test -race -count=10 -run '$(STABLE_TESTS)' ./internal/proxy ./internal/chaos ./internal/browser

# Experiment-transcript gate (CI): `bapsim all` must reproduce
# cmd/bapsim/testdata/all.golden byte for byte. The one exception is the rows
# of the "§6 security overheads" table, which are wall-clock timings (their
# column widths move too): the filter keeps its title and drops the rest of
# the table on both sides. After a deliberate change to a figure, refresh
# the transcript with `make bapsim-golden UPDATE=1` and say why in the commit.
BAPSIM_FILTER = awk '/^§6 security overheads/ { print; skip = 1; next } skip && /^$$/ { skip = 0 } !skip'
bapsim-golden:
	$(GO) run ./cmd/bapsim all > bapsim_all.out
	@if [ -n "$(UPDATE)" ]; then \
		$(BAPSIM_FILTER) bapsim_all.out > cmd/bapsim/testdata/all.golden; \
	else \
		$(BAPSIM_FILTER) bapsim_all.out | diff -u cmd/bapsim/testdata/all.golden - \
			|| { echo "bapsim-golden: bapsim all differs from cmd/bapsim/testdata/all.golden"; exit 1; }; \
	fi
	rm -f bapsim_all.out

# Fuzz smoke (CI): FuzzDocRecord drives the proxy's document records against
# a reference model of the docs.go transition table for 30 s; the trace
# readers' FuzzBTR and FuzzRead get 10 s each. Two fuzz workers per target.
# The checked-in corpora under testdata/fuzz also run in every `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDocRecord$$' -fuzztime 30s -parallel 2 ./internal/proxy
	$(GO) test -run '^$$' -fuzz '^FuzzBTR$$' -fuzztime 10s -parallel 2 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s -parallel 2 ./internal/trace

# Static analysis (SA* checks, see staticcheck.conf). Gated on the binary
# being present so the target works in minimal containers without network
# access; CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (includes the live churn tests).
race:
	$(GO) test -race ./...

# Fast pass: skips the live chaos/churn tests.
short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Record a benchmark baseline as BENCH_<date>.json (override DATE=... to pin
# the filename). COUNT=5 gives benchstat-grade samples.
bench-baseline:
	$(GO) test -bench=$(BENCH_FILTER) -benchmem -count=$(COUNT) -run=^$$ $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_$(DATE).json

# Compare a fresh benchmark run against a recorded baseline:
#   make bench-compare BASELINE=BENCH_2026-08-05_baseline.json
bench-compare:
	@test -n "$(BASELINE)" || { echo "usage: make bench-compare BASELINE=BENCH_<date>.json"; exit 2; }
	$(GO) test -bench=$(BENCH_FILTER) -benchmem -count=$(COUNT) -run=^$$ $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -compare $(BASELINE)

# Record the replay/driver-suite benchmark as BENCH_<date>_replay.json.
bench-replay:
	$(GO) test -bench=$(REPLAY_BENCH_FILTER) -benchmem -benchtime=1x -count=3 -run=^$$ . \
		| $(GO) run ./cmd/benchjson > BENCH_$(DATE)_replay.json

# Replay speedup gate: the checked-in post-optimization record must show
# the driver suite >= 1.5x faster than the checked-in sequential baseline
# (both measured on the same hardware — cross-machine ns/op ratios are
# meaningless, which is why the gate reads the two committed records
# instead of re-measuring on whatever box runs it).
bench-replay-compare:
	@test -n "$(REPLAY_BASELINE)" || { echo "no BENCH_*_replay_baseline.json found"; exit 2; }
	@test -n "$(REPLAY_RECORD)" || { echo "no BENCH_*_replay.json record found"; exit 2; }
	$(GO) run ./cmd/benchjson -compare $(REPLAY_BASELINE) -input $(REPLAY_RECORD) \
		-mingain BenchmarkAllExperiments=1.5

# Yardstick smoke (CI): the three live workloads (origin miss, peer serve,
# proxy hit) for 10 s each and the two simulator workloads for 3 s each.
# A run fails the target if `go run` fails (benchmark/ no longer builds
# against internal/, or the run errors) or if its last line, the contract
# line, does not carry "correct":true — a wrong body, a failed operation,
# or a drift in any of golden.json's 21 seed-1 hit ratios. So a change that
# breaks the yardstick is caught here, not in a pipeline run.
BENCH_SMOKE_RUNS = live.origin:10 live.peer:10 live.hot:10 sim.sweep:3 sim.stream:3
bench-e2e-smoke:
	@for run in $(BENCH_SMOKE_RUNS); do \
		w=$${run%%:*}; secs=$${run##*:}; \
		echo "$(GO) run ./benchmark -workload $$w -seconds $$secs"; \
		out=$$($(GO) run ./benchmark -workload $$w -seconds $$secs) || { echo "$$out"; echo "bench-e2e-smoke: $$w failed"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "bench-e2e-smoke: $$w: contract line lacks \"correct\":true"; exit 1; }; \
	done

# 100k-client out-of-core replay smoke (CI): constant-memory generation of
# a 2M-request trace from the streaming synth profile, then a full
# streaming replay gated at a 1 GiB peak-RSS budget with progress logging.
# The generated .btr must match STREAM_SMOKE_MD5 byte for byte, so a
# generator change that alters a large trace fails here, not only the
# 100k-request goldens in internal/synth. The replay report lands in
# STREAM_smoke_100k.txt (uploaded as a CI artifact).
STREAM_SMOKE_MD5 = 4d4947cef1c6beb3b02e1720054d1b31
stream-smoke:
	$(GO) run ./cmd/tracegen -profile synth-1m -clients 100000 -requests 2000000 \
		-stream -btr -o /tmp/baps-smoke-100k.btr
	echo '$(STREAM_SMOKE_MD5)  /tmp/baps-smoke-100k.btr' | md5sum -c -
	$(GO) run ./cmd/bapsim -stream /tmp/baps-smoke-100k.btr -parallel 2 \
		-maxrss 1073741824 -progress 30s replay | tee STREAM_smoke_100k.txt
	rm -f /tmp/baps-smoke-100k.btr

# 10-second closed-loop load smoke against an in-process loopback cluster
# (origin + proxy inside the bapsload process). Fails if nothing succeeds;
# the JSON report lands on stdout.
loadtest:
	$(GO) run ./cmd/bapsload -inprocess -clients 16 -docs 5000 -zipf 1.2 -duration 10s

# Crash/restart recovery gate: the in-process cluster runs with a disk tier,
# the proxy is SIGKILLed (Crash: no flush, no state save) mid-run and
# restarted on the same address and data directory. The report's `restart`
# section must show the hit ratio recovering to >= 90% of steady state with
# no post-restart origin spike beyond 2x. Writes LOAD_<date>_restart.json.
loadtest-restart:
	rm -rf /tmp/baps-loadtest-restart
	$(GO) run ./cmd/bapsload -inprocess -datadir /tmp/baps-loadtest-restart \
		-capacity 33554432 -clients 16 -docs 5000 -zipf 1.2 \
		-duration 24s -restartat 12s -restartdown 1s > LOAD_$(DATE)_restart.json
	@grep -E '"recovered"|"origin_spike_ok"|hit_ratio|restored_docs' LOAD_$(DATE)_restart.json
	@grep -q '"recovered": true' LOAD_$(DATE)_restart.json || { echo "restart recovery FAILED"; exit 1; }
	@grep -q '"origin_spike_ok": true' LOAD_$(DATE)_restart.json || { echo "origin spike gate FAILED"; exit 1; }

# Federation scale-out gate (DESIGN.md §13): the same closed loop against
# in-process clusters of 1, 2, 4, and 8 digest-exchanging proxies, each
# capped at the same per-proxy admission rate to model one machine per
# proxy. With three doublings in the sweep the gate is per doubling: the
# combined report must show aggregate RPS growing >= 1.7x per doubling with
# the aggregate hit ratio within 3 points (bapsload exits non-zero
# otherwise). Writes LOAD_<date>_federation.json.
loadtest-federation:
	$(GO) run ./cmd/bapsload -proxysweep "1,2,4,8" -clients 12 -docs 5000 \
		-zipf 1.2 -duration 8s -proxyrps 450 -digestinterval 250ms \
		> LOAD_$(DATE)_federation.json \
		|| { cat LOAD_$(DATE)_federation.json; echo "federation scaling gate FAILED"; exit 1; }
	@grep -E '"aggregate_rps"|"aggregate_hit_ratio"|"rps_scaling"|"scaling_per_doubling"|"scaling_ok"|"hit_ratio_ok"|"bloom_fp_rate"|"cross_proxy_rate"' LOAD_$(DATE)_federation.json

# Lean-agent soak gate (DESIGN.md §15): 50,000 hosted agents across 8
# AgentHosts under 10 minutes of sustained closed-loop load with 30% fleet
# churn (individual kills and whole-host kills) and origin modification
# churn, sampling RSS / goroutines / RPS / p99 every second. Gates: hosted
# hit ratio within 2 points of the per-agent-server parity baseline, and
# peak RSS per agent <= 50 KiB. Writes LOAD_<date>_soak.json.
soak:
	$(GO) run ./cmd/bapsload -soak -agenthosts 8 -agentsperhost 6250 \
		-clients 64 -docs 20000 -zipf 1.2 -duration 10m -churn 0.3 \
		-modrate 5 -docsize 1024 -agentcache 16384 -capacity 67108864 \
		> LOAD_$(DATE)_soak.json \
		|| { grep -vE '"t_sec"|"rss_bytes"|"goroutines"|"rps"|"p99_ms"|"live_agents"|[{}],?$$' LOAD_$(DATE)_soak.json; echo "soak gate FAILED"; exit 1; }
	@grep -E '"agents"|"hit_ratio_delta"|"hit_ratio_ok"|"rss_per_agent_bytes"|"rss_per_agent_ok"|"agent_kills"|"host_kills"|"ok"' LOAD_$(DATE)_soak.json

# 60-second soak smoke for CI: a scaled-down fleet with the same churn
# profile, gated against the checked-in baseline (RPS >= 0.6x, p99 <= 2.5x,
# RSS per agent <= 1.4x) via -soakcompare. Writes LOAD_soak_smoke.json.
# Set SOAK_BASELINE= to record a fresh baseline without comparing.
SOAK_BASELINE ?= LOAD_soak_smoke_baseline.json
soak-smoke:
	$(GO) run ./cmd/bapsload -soak -agenthosts 4 -agentsperhost 500 \
		-clients 48 -docs 8000 -zipf 1.2 -duration 60s -churn 0.3 \
		-modrate 5 -docsize 1024 -agentcache 16384 -capacity 67108864 \
		$(if $(SOAK_BASELINE),-soakcompare $(SOAK_BASELINE),) \
		> LOAD_soak_smoke.json \
		|| { grep -vE '"t_sec"|"rss_bytes"|"goroutines"|"rps"|"p99_ms"|"live_agents"|[{}],?$$' LOAD_soak_smoke.json; echo "soak smoke gate FAILED"; exit 1; }
	@grep -E '"hit_ratio_delta"|"hit_ratio_ok"|"rss_per_agent_bytes"|"rss_per_agent_ok"|"rps_ratio"|"p99_ratio"|"rss_per_agent_ratio"|"shared_bodies"|"shared_body_bytes"|"body_refs"|"ok"' LOAD_soak_smoke.json

# Invalidation-pipeline gate (DESIGN.md §14): modification churn against a
# 2-proxy federated cluster, run twice — background pipeline off, then on.
# bapsload exits non-zero unless the pipeline cuts the stale-serve rate >= 5x
# while origin fetches per modification stay <= 2 (steady state: one
# conditional refetch per modification). Writes LOAD_<date>_invalidation.json
# carrying both runs' reports.
loadtest-invalidation:
	$(GO) run ./cmd/bapsload -modrate 6 -proxies 2 -clients 8 -docs 400 \
		-zipf 1.3 -duration 8s > LOAD_$(DATE)_invalidation.json \
		|| { cat LOAD_$(DATE)_invalidation.json; echo "invalidation pipeline gate FAILED"; exit 1; }
	@grep -E '"stale_serves_total"|"origin_fetches_per_modification"|"stale_reduction"|"stale_ok"|"origin_ok"' LOAD_$(DATE)_invalidation.json

# Agent-driven load smoke: the same closed loop driven through full browser
# agents (local cache, peer server, batched index publishing), reporting
# index-maintenance requests per non-local fetch. Writes
# LOAD_<date>_agents.json.
loadtest-agents:
	$(GO) run ./cmd/bapsload -inprocess -clients 16 -docs 5000 -zipf 1.2 \
		-duration 10s -agents > LOAD_$(DATE)_agents.json
	@grep -E '"rps"|index_requests' LOAD_$(DATE)_agents.json
