GO ?= go

# Packages whose lock-free instrumentation paths must stay race-clean.
# proto rides along for the adaptive-controller convergence tests: the
# controller's counter snapshots and collective decisions run
# concurrently with the bracket fast path. core also carries the
# tree-collective paths (coll_test.go); proto the aggregated push
# frames. gateway carries
# the session fan-out: per-session writers, the coordinator, and the
# room drains all share the stats and send-queue paths. faultnet's
# scheduler goroutine runs beside senders, Kill and Quiesce.
RACE_PKGS = ./internal/trace ./internal/core ./internal/amnet ./internal/faultnet ./internal/tcpnet ./internal/gossip ./proto ./internal/gateway

.PHONY: ci vet build test bench-test race bench-compare bench-allocs chaos-smoke cluster-smoke gate-smoke

ci: vet build test bench-test race bench-allocs chaos-smoke cluster-smoke gate-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the benchmark module's own smoke test (all six workloads
# and the layer probes on a small input). benchmark/ is a module of its
# own, so ./... above does not reach it.
bench-test:
	$(GO) test -C benchmark ./...

# -cpu 1,4 runs each race test single-context and multicore: direct
# dispatch runs handlers on senders' goroutines and application threads
# beside the pumps, and those only interleave for real with more than
# one hardware context to run on.
race:
	$(GO) test -race -cpu 1,4 $(RACE_PKGS)

# bench-compare measures this tree against BASE by alternating runs of the
# two builds, workload by workload, and prints the benchmark's own
# -compare verdicts (see scripts/bench_compare.sh for ROUNDS, SECS, SEED).
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev>" >&2; exit 2; }
	bash scripts/bench_compare.sh $(BASE)

# chaos-smoke is the protocol-conformance stress gate: the fixed-seed
# protocol × fault-policy matrix (seeds 1..3) via the package tests,
# the collective cells (a five-processor tree, overlapping barrier
# generations) plus core's canonical-order reduction oracle, the
# elastic cells (checkpoint/kill/rejoin drills,
# MigrateHome mid-workload, the broken-rejoin double), plus race-enabled
# cells: the
# nastiest matrix policy, one rejoin drill, and the MigrateHome-vs-
# bracket-fast-path stress. Fixed seeds keep it deterministic. The
# space-churn cells cover the lifecycle itself: waves of collective
# NewSpace/FreeSpace under every fault policy, with bounded-table,
# stale-ref and generation checks (plus a lossy cell under -race).
chaos-smoke:
	$(GO) test -run 'TestMatrixFixedSeeds|TestBrokenDoubleCaught' ./internal/chaos
	$(GO) test -run 'TestColl' ./internal/chaos
	$(GO) test -run 'TestAllReduceCanonicalOrder' ./internal/core
	$(GO) test -run 'TestRejoinFixedSeeds|TestBrokenRejoinCaught|TestMigrateFixedSeeds' ./internal/chaos
	$(GO) test -run 'TestSpaceChurn' ./internal/chaos
	$(GO) test -race -run 'TestMatrixFixedSeeds/^(update|adaptive)$$/lossy' ./internal/chaos
	$(GO) test -race -run 'TestCollTopologyCells/update/tree\+agg/lossy' ./internal/chaos
	$(GO) test -race -run 'TestRejoinFixedSeeds/update/jittery' ./internal/chaos
	$(GO) test -race -run 'TestSpaceChurnFixedSeeds/update/lossy' ./internal/chaos
	$(GO) test -race -run 'TestMigrateHomeRace|TestRejoinVsTreeReduction' ./internal/core

# cluster-smoke is the multi-process deployment gate: 4 real acenode
# processes assemble over gossip + TCP on loopback, run em3d (checksum
# must match the in-process run), and a SIGKILLed member must surface as
# ErrPeerLost on every survivor within the detector bound.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# gate-smoke is the session-gateway deployment gate: a real acegate
# process on loopback takes scripted websocket probe fleets (checksum
# parity across every member of a room), re-creates its rooms in
# recycled space slots on a rerun, shrugs off garbage connections, and
# must exit with rooms created == destroyed (no leaked spaces).
gate-smoke:
	bash scripts/gate_smoke.sh

# bench-allocs is the regression gate for the lock-free bracket fast
# path: a hit bracket must not allocate, whether it is only counted
# (disabled) or also timed (metrics). It fails when go test fails, when
# either BenchmarkBracket result line is missing, and when either
# reports nonzero allocs/op.
bench-allocs:
	@out=$$($(GO) test -bench 'BenchmarkBracket/(disabled|metrics)$$' -benchmem -benchtime=200ms -run '^$$' .); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then echo "FAIL: go test -bench exited $$status"; exit 1; fi; \
	echo "$$out" | awk '$$1 ~ /^BenchmarkBracket\/(disabled|metrics)(-[0-9]+)?$$/ { split($$1, n, /[\/-]/); seen[n[2]] = 1; \
			if ($$(NF-1) + 0 != 0) { print "FAIL: bracket fast path allocates: " $$0; bad = 1 } } \
		END { for (i = split("disabled metrics", want, " "); i > 0; i--) if (!(want[i] in seen)) { print "FAIL: no BenchmarkBracket/" want[i] " result"; bad = 1 } exit bad }'
