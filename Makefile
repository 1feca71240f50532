GO ?= go

.PHONY: build vet test race lint loc loc-check bench-e2e bench-e2e-compare bench-ab bench-engine bench-engine-baseline bench-workers fault bench-ckpt bench-ckpt-baseline bench-wire bench-wire-baseline bench-ooc bench-ooc-baseline bench-graph bench-graph-baseline smoke-adaptive serve-smoke ooc-smoke cover ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The tracked "net non-test LoC" number, exactly as CHANGES.md counts it.
LOC = find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
loc:
	@$(LOC)

# LOC_MAX is the last recorded `make loc`, a committed number like the
# BENCH_* baselines: loc-check fails when the tree has outgrown it, so the
# tracked size goes up only by an edit to this line that a reviewer sees.
# Lower it in the PR that shrinks the tree.
LOC_MAX := 17035
loc-check:
	@n=$$($(LOC)); echo "non-test LoC $$n (LOC_MAX $(LOC_MAX))"; [ $$n -le $(LOC_MAX) ]

# Mirrors the CI lint job: gofmt must report nothing, vet must be clean,
# and govulncheck scans the module (fetched with `go run`, so nothing is
# added to go.mod; requires network access). The only build-tagged files
# are the graph mmap loader's unix/!unix pair, so plain `go vet ./...`
# covers every file reachable on the host OS plus the stub's other half
# via its mirror-image tag.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

test:
	$(GO) test ./...

# -short skips the full-workload shape tests, which exceed the default
# per-package timeout under the race detector's ~10x slowdown.
race:
	$(GO) test -race -short -timeout 20m ./...

# The end-to-end benchmark (bench/README.md, BENCHMARK.json): all five
# workloads, untraced and traced, ~3.5 min; results.json and the traces land
# under .bench_build/e2e. Compare two such runs — every exact per-layer
# count and report_sha256 must match, end-to-end metrics within their
# bounds — with `make bench-e2e-compare A=old/results.json B=new/results.json`.
bench-e2e:
	bash bench/run.sh -all -out .bench_build/e2e

bench-e2e-compare:
	bash bench/run.sh -compare $(A) $(B)

# Paired A/B of the working tree against PARENT on workload W: PAIRS
# alternating pairs, pair s at -seed s, then per end-to-end metric the
# medians, the parent's quartiles, the pairs won and better / worse /
# unresolved against BENCHMARK.json's bounds (scripts/bench_ab.sh).
bench-ab:
	bash scripts/bench_ab.sh $(PARENT) $(W) $(PAIRS)

# Engine hot-path benchmark with the regression gate, mirroring the CI
# race-parallel job: message throughput, the allocation-free steady-state
# delivery cycle, its SendAll fan-out and keyed-combine counterparts
# (counting sort + fold table), the per-batch cost of New against Reset,
# and the skewed-degree workload, checked against the committed
# BENCH_engine.json baseline. Each benchmark runs 5 times (-count 5: five
# go test passes over the whole set, so one host slow spell cannot cover
# all of one benchmark's runs): the gate compares the fastest ns/op, the
# median B/op and the largest allocs/op. ns/op and B/op may regress at most
# 25%, and the 0 allocs/op baselines (the three steady-state cycles and
# Reset) are matched exactly — one allocation on the delivery, fold or
# re-arm path, in any of the five runs, fails the gate.
# BenchmarkEngineWorkers is deliberately NOT in the gate: its wall clock
# measures pool scaling, which depends on the host's core count and means
# nothing on an arbitrary CI runner; it stays an uploaded artifact
# (bench-workers below).
bench-engine:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkEngineMessageThroughput$$|BenchmarkEngineDeliverySteadyState$$|BenchmarkEngineFanOut$$|BenchmarkEngineKeyedCombine$$|BenchmarkEngineBatchReuse|BenchmarkEngineSkewedDegree/w1$$' 		-pkg ./internal/engine -benchmem -benchtime 20x -count 5 -out BENCH_engine_run.json 		-compare BENCH_engine.json -max-regress 0.25

# Refresh the committed engine baseline after a deliberate hot-path change;
# commit the resulting BENCH_engine.json alongside the change justifying it.
bench-engine-baseline:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkEngineMessageThroughput$$|BenchmarkEngineDeliverySteadyState$$|BenchmarkEngineFanOut$$|BenchmarkEngineKeyedCombine$$|BenchmarkEngineBatchReuse|BenchmarkEngineSkewedDegree/w1$$' 		-pkg ./internal/engine -benchmem -benchtime 20x -count 5 -out BENCH_engine.json

# Worker-pool scaling artifact (not a gate; see bench-engine).
bench-workers:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkEngineWorkers' 		-pkg ./internal/engine -benchtime 2x -out BENCH_workers_run.json

# Fault-injection + checkpoint/recovery tests under the race detector,
# mirroring the CI fault-recovery job. `Crash` also selects the cluster's
# exhaustive axis, rpcrt's TestEveryCrashPointMatchesFaultFree (a crash at
# every superstep × worker of every task, ~10 s under -race); `Prune`
# selects the reused-directory tests of ckpt.Manager.Save.
fault:
	$(GO) test -race -count=1 -timeout 20m 		-run 'Crash|Recover|Fault|Checkpoint|Prune|Close|Drop|Delay|Slow' 		./internal/ckpt/... ./internal/fault/... ./internal/engine/... 		./internal/rpcrt/... ./internal/difftest/... ./internal/tasks/...

# Checkpoint-overhead benchmark with the regression gate, mirroring the
# CI fault-recovery job: fails on >50% ns/op regression against the
# committed BENCH_ckpt.json baseline. The threshold is looser than the
# wire gate because checkpoint benchmarks go through the filesystem, and
# each size runs 100 iterations: at 2, an 8 MB write's ns/op rested on two
# samples and the gate failed about half its runs at any commit. The set runs
# 5 times (-count 5, folded as in bench-engine).
bench-ckpt:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkCheckpointWrite|BenchmarkCheckpointRecover' 		-pkg ./internal/ckpt -benchtime 100x -count 5 -out BENCH_ckpt_run.json 		-compare BENCH_ckpt.json -max-regress 0.5

# Refresh the committed checkpoint baseline after a deliberate change;
# commit the resulting BENCH_ckpt.json alongside the change justifying it.
bench-ckpt-baseline:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkCheckpointWrite|BenchmarkCheckpointRecover' 		-pkg ./internal/ckpt -benchtime 100x -count 5 -out BENCH_ckpt.json

# Wire-codec benchmark with the regression gate, mirroring the CI
# bench-wire job: fails on >25% ns/op or B/op regression against the
# committed BENCH_wire.json baseline. The set runs 5 times (-count 5, folded
# as in bench-engine).
bench-wire:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkDeliver' -pkg ./internal/wire 		-benchmem -benchtime 200x -count 5 -out BENCH_wire_run.json 		-compare BENCH_wire.json -max-regress 0.25

# Refresh the committed baseline after a deliberate codec change; commit
# the resulting BENCH_wire.json alongside the change that justifies it.
bench-wire-baseline:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkDeliver' -pkg ./internal/wire 		-benchmem -benchtime 200x -count 5 -out BENCH_wire.json

# Partition-codec, edge-window (every vertex computing, and every fourth:
# BenchmarkWindowSparse) and runner-superstep benchmarks with the
# regression gate, mirroring the CI ooc job: each runs 5 times (-count 5, as
# in bench-engine: the fastest ns/op, the median B/op and the largest
# allocs/op are compared), failing on >50% ns/op, B/op or allocs/op
# regression against the committed BENCH_ooc.json baseline (filesystem-bound,
# so the threshold matches the checkpoint gate).
bench-ooc:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkPartitionWrite|BenchmarkPartitionRead|BenchmarkWindow|BenchmarkRunnerSuperstep' 		-pkg ./internal/ooc -benchtime 100x -count 5 -out BENCH_ooc_run.json 		-compare BENCH_ooc.json -max-regress 0.5

# Refresh the committed partition-codec baseline after a deliberate format
# or decoder change; commit the resulting BENCH_ooc.json alongside the change.
bench-ooc-baseline:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkPartitionWrite|BenchmarkPartitionRead|BenchmarkWindow|BenchmarkRunnerSuperstep' 		-pkg ./internal/ooc -benchtime 100x -count 5 -out BENCH_ooc.json

# Graph-load benchmark with the regression gate, mirroring the CI
# bench-graph job: the bulk load of a mid-size weighted replica, checked
# against the committed BENCH_graph.json baseline. ns/op and allocs/op may
# regress at most 25%. The benchmark runs 5 times (-count 5, folded as in
# bench-engine).
# The mmap disk path (BenchmarkLoadBinaryFileV3) stays out of the gate —
# it measures the host filesystem — but rides along as an artifact.
bench-graph:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkLoadBinaryV3$$' 		-pkg ./internal/graph -benchmem -benchtime 20x -count 5 -out BENCH_graph_run.json 		-compare BENCH_graph.json -max-regress 0.25

# Refresh the committed graph-load baseline after a deliberate format or
# loader change; commit the resulting BENCH_graph.json alongside it. The
# baseline must stay >= 2x faster than the retired v2 decode's recorded
# 24.7 ms (cmd/benchjson's TestGraphBaselineShowsBulkWin pins that contract).
bench-graph-baseline:
	$(GO) run ./cmd/benchjson -bench 'BenchmarkLoadBinaryV3$$' 		-pkg ./internal/graph -benchmem -benchtime 20x -count 5 -out BENCH_graph.json

# Closed-loop tuner smoke (DESIGN.md section 10), mirroring the CI step: the
# static-vs-adaptive mispriced-training figure plus the vctune -adaptive
# end-to-end run that writes the adaptive report section.
smoke-adaptive:
	$(GO) test -count=1 -run 'TestFigureAdaptiveShapes' ./internal/experiments/
	$(GO) test -count=1 -run 'TestRunAdaptive' ./cmd/vctune/ ./internal/core/

# vcserve end-to-end smoke, mirroring the CI serve-smoke job: admission
# control queues the second of two concurrent jobs under a one-job budget,
# both complete, reports are byte-identical to one-shot vcrun, and corrupt
# graph dumps are rejected by every loader.
serve-smoke:
	sh scripts/serve_smoke.sh

# Out-of-core end-to-end smoke, mirroring the CI ooc job: the Table 2
# overflow workload must overflow in-memory, complete under -ooc with the
# resident window inside the budget and >= 4x the budget routed through
# partition files, and produce a report byte-identical to the in-memory
# run modulo the ooc counters.
ooc-smoke:
	sh scripts/ooc_smoke.sh

# Coverage gate for the service and graph-loader subsystems, mirroring the
# CI coverage step: combined statement coverage must stay at or above 80%.
cover:
	$(GO) test -coverprofile=cover.out ./internal/serve/ ./internal/graph/
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { pct = $$3; sub(/%/, "", pct); 		if (pct + 0 < 80) { printf "coverage %s below the 80%% floor\n", $$3; exit 1 } 		printf "coverage %s (floor 80%%)\n", $$3 }'

ci: build vet test race
