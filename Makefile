GO ?= go

.PHONY: build test race vet bench bench-micro bench-e2e bench-ci bench-1m bench-history bench-baseline bench-check scaling scaling-ci obs-demo storm-demo serve-demo clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) run ./cmd/kkt bench --trials 8 --seed 1 --out BENCH_suite.json

# Micro-benchmarks with allocation reporting: the hot-path contracts
# (zero allocs on Send/dispatch) regress loudly here.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkSend$$|BenchmarkSendAsync$$|BenchmarkDeliverScattered$$' -benchtime 200000x -benchmem ./internal/congest
	$(GO) test -run '^$$' -bench 'BenchmarkNewNetwork$$' -benchtime 200x -benchmem ./internal/congest
	$(GO) test -run '^$$' -bench 'BenchmarkNewNetworkGNM$$' -benchtime 20x -benchmem ./internal/congest
	$(GO) test -run '^$$' -bench BenchmarkGNMDense -benchtime 10x -benchmem ./internal/graph
	$(GO) test -run '^$$' -bench BenchmarkKruskal -benchtime 10x -benchmem ./internal/spanning
	$(GO) test -run '^$$' -bench BenchmarkBroadcastEcho -benchtime 20x -benchmem ./internal/tree
	$(GO) test -run '^$$' -bench BenchmarkRelayout -benchtime 20x -benchmem ./internal/tree
	$(GO) test -run '^$$' -bench BenchmarkBuildMST -benchtime 10x -benchmem ./internal/mst
	$(GO) test -run '^$$' -bench BenchmarkRepairStorm -benchtime 10x -benchmem ./internal/harness

# End-to-end wall-clock ledger: three runs of every bench/ workload
# (round-robin, each in a fresh process) plus one traced run each for the
# per-layer split, written to BENCH_e2e.json. Takes about seven minutes on
# a 2-vCPU host; see bench/README.md for the metrics.
bench-e2e:
	bash bench/run.sh --reps 3 --traced --out BENCH_e2e.json

# Short-mode CI bench job: micro-benchmarks plus a 1-trial sweep of the
# full suite — including the 100k-node and 50k-node scale scenarios, but
# not the 1M-node headline (run `make bench-1m` for that) — emitting
# BENCH_ci.json as the per-commit perf artifact.
bench-ci: bench-micro
	$(GO) run ./cmd/kkt bench --trials 1 --seed 1 --quiet --exclude gnm-1m --out BENCH_ci.json

# The 1M-node sharded headline scenario: one seeded trial, one shard per
# core. Takes minutes; emits BENCH_1m.json.
bench-1m:
	$(GO) run ./cmd/kkt bench --filter gnm-1m --trials 1 --seed 1 --shards $$(nproc) --out BENCH_1m.json

# Fold per-commit BENCH_ci.json artifacts into the perf-trajectory table
# (markdown; see `benchcheck history -h` for CSV). Pass more reports as
# HISTORY_REPORTS to chart across commits.
HISTORY_REPORTS ?= BENCH_ci.json
bench-history:
	$(GO) run ./cmd/benchcheck history -format md -o BENCH_history.md $(HISTORY_REPORTS)

# Empirical o(m) verification sweep: ladder the KKT build against the GHS
# and flood baselines on a density-growing gnm ladder (m = n²/8), fit the
# messages-vs-m exponents, and run the one-sided Welch separation test.
# Emits SCALING_sweep.json; render it with
# `go run ./cmd/benchcheck scaling SCALING_sweep.json`. See the README's
# "Measuring the o(m) claim" section.
scaling:
	$(GO) run ./cmd/kkt scaling --families gnm --algos mst,ghs,flood --seeds 3 --out SCALING_sweep.json

# The reduced-ladder smoke sweep CI runs (≤30s): pipeline coverage, not
# statistical power.
scaling-ci:
	$(GO) run ./cmd/kkt scaling --families gnm --algos mst,flood --ladder 128:512:3 --seeds 2 --quiet --out SCALING_ci.json

# Refresh the committed perf baseline from the pinned micro-benchmarks.
# Run on the reference machine after an intentional perf change, commit
# the result.
bench-baseline:
	$(MAKE) bench-micro | $(GO) run ./cmd/benchcheck parse -o BENCH_baseline.json

# Perf regression gate: re-measure the pinned micro-benchmarks and compare
# against the committed baseline. Fails on any allocs/op increase, or on a
# >20% ns/op increase when measured on the same CPU as the baseline
# (cross-machine wall-clock is noise; allocation counts are deterministic).
bench-check:
	$(MAKE) bench-micro | $(GO) run ./cmd/benchcheck parse -o BENCH_micro_ci.json
	$(GO) run ./cmd/benchcheck compare -baseline BENCH_baseline.json -fresh BENCH_micro_ci.json

# Live-observability demo: a 100k-node sharded MST build serving JSON
# snapshots, Prometheus /metrics and pprof on :8080 while it runs, plus the
# driver/heap footprint on stderr afterwards. Scrape with e.g.
# `curl localhost:8080/metrics`.
obs-demo:
	$(GO) run ./cmd/kkt run mst-build/gnm-100k/sync --trials 1 --shards $$(nproc) --obs-listen :8080 --obs-hold --footprint

# Adversarial-robustness demo: a ~10k-repair fault-plan storm (partitions,
# correlated bursts, targeted deletions, heals) against a maintained MSF on
# 100k nodes, repairs running in overlapping waves. While it runs, :8080
# serves live repair-latency percentiles (rounds_p50/p90/p99 under
# "repairs" at /timeline, kkt_trial_repair_rounds at /metrics).
storm-demo:
	$(GO) run ./cmd/kkt run mst-repair/gnm-100k/storm --trials 1 --shards $$(nproc) --obs-listen :8080 --obs-hold --footprint

# Serving-mode demo: a live topology-maintenance daemon over a 100k-node
# graph under sustained churn, one shard per core. While it runs, :8080
# serves the usual /timeline, /metrics and pprof endpoints plus the
# Server-Sent Events push stream at /ws — subscribe with
# `go run ./cmd/kkt ws localhost:8080` or `curl -N localhost:8080/ws`. Durable state checkpoints to
# /tmp/kkt-serve.ckpt every 4 epochs; kill the daemon at any point and
# re-run with `--resume` appended to pick up where it left off.
serve-demo:
	$(GO) run ./cmd/kkt serve --family gnm --n 100000 --m 300000 --graph-seed 1 \
		--seed 1 --shards $$(nproc) --epoch-events 128 --events 16384 \
		--churn tree-deletes=24,deletes=16,inserts=16,weight-changes=8 \
		--checkpoint /tmp/kkt-serve.ckpt --checkpoint-every 4 --obs-listen :8080

clean:
	rm -f BENCH_ci.json BENCH_suite.json BENCH_micro_ci.json BENCH_1m.json BENCH_history.md \
		SCALING_sweep.json SCALING_ci.json SCALING_history.md
