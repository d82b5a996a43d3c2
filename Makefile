GO ?= go

# Packages whose lock-free instrumentation paths must stay race-clean.
# proto rides along for the adaptive-controller convergence tests: the
# controller's counter snapshots and collective decisions run
# concurrently with the bracket fast path. core also carries the
# tree-collective paths (coll_test.go); proto the aggregated push
# frames. memory's region table serves lock-free lookups beside its
# writers. gateway carries
# the session fan-out: per-session writers, the coordinator, and the
# room drains all share the stats and send-queue paths. faultnet's
# scheduler goroutine runs beside senders and Kill.
RACE_PKGS = ./internal/trace ./internal/core ./internal/memory ./internal/amnet ./internal/faultnet ./internal/tcpnet ./internal/gossip ./proto ./internal/gateway ./internal/bench

.PHONY: ci fmt vet build test bench-test race fuzz-smoke bench-compare bench-allocs coll-bench chaos-smoke cluster-smoke gate-smoke examples-smoke paper-smoke

ci: fmt vet build test bench-test race fuzz-smoke bench-allocs coll-bench chaos-smoke cluster-smoke gate-smoke examples-smoke paper-smoke

# fmt fails when gofmt would reformat any Go file git tracks, the
# benchmark module's included, or cannot parse one.
fmt:
	@files=$$(git ls-files '*.go'); \
	if [ -z "$$files" ]; then echo "FAIL: git ls-files lists no Go file"; exit 1; fi; \
	out=$$(gofmt -l $$files) || { echo "FAIL: gofmt exited nonzero"; exit 1; }; \
	if [ -n "$$out" ]; then echo "FAIL: not gofmt-formatted:"; echo "$$out"; exit 1; fi

# vet covers the benchmark module too: benchmark/ is a module of its
# own, so ./... does not reach it.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

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
# dispatch runs handlers on senders' goroutines, tcpnet readers and
# application threads beside the pumps, and those only interleave for
# real with more than one hardware context to run on.
race:
	$(GO) test -race -cpu 1,4 $(RACE_PKGS)

# fuzz-smoke mutates past the checked-in seeds of the two decoders that
# take hostile input: tcpnet's frame reader and the gateway's websocket
# frame decoder, ten seconds each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/tcpnet
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/gateway

# bench-compare measures this tree against BASE by alternating runs of the
# two builds, workload by workload, and prints the benchmark's own
# -compare verdicts (see scripts/bench_compare.sh for ROUNDS, SECS, SEED).
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev>" >&2; exit 2; }
	bash scripts/bench_compare.sh $(BASE)

# chaos-smoke is the protocol-conformance stress gate. Its chaos and
# proto conformance cells all run internal/chaos's one drill: half the seeded schedule under the
# protocol, its lock phase, a mid-schedule ChangeProtocol with the
# second half under another protocol, and a checked switch back. The
# lines are the fixed-seed protocol × fault-policy matrix (seeds 1..3)
# with the broken double; the collective cells (a five-processor tree,
# overlapping barrier generations) plus core's canonical-order reduction
# oracle; the elastic cells (checkpoint/kill/rejoin drills, the
# broken-rejoin double); the space-churn cells (waves
# of collective NewSpace/FreeSpace under every fault policy, with
# bounded-table, stale-ref and generation checks); and race-enabled
# cells: the nastiest matrix policy, one rejoin drill, a lossy churn
# cell, a lookup served on direct dispatch while the home holds its
# engine, and the no-stale-fast-bit check after every space-wide reset. Fixed seeds keep
# it deterministic. The adaptive controller reads no clock, so proto's
# adaptive drill cells must end with the same switches at the same
# epoch under every policy; repeating them under -race at one and four
# CPUs keeps timing out of its decisions. The tree-round engine's
# peer-loss purge and once-only peer-down latch, overlapping rounds,
# handler-vs-application-thread folding and the lifecycle collectives'
# mismatch detection on every processor repeat the same way, as do
# tcpnet's reconnect under a live cluster and from a link's accepting
# side, its readers' direct dispatch against a full journal, acks riding
# data frames and an inline write's tail going out first, and the fabric's
# mixed direct/queued dispatch bare and under faultnet. faultnet forwards direct dispatch to
# the fabric it wraps, so every drill cell runs handlers on the same
# direct-dispatch path as a cluster without faults. Each line goes
# through scripts/gotest_gate.sh, which fails it when its -run pattern
# ran no test (or, for a subtest pattern, no subtest).
GOTEST_GATE = GO=$(GO) bash scripts/gotest_gate.sh
chaos-smoke:
	$(GOTEST_GATE) -run 'TestMatrixFixedSeeds|TestBrokenDoubleCaught' ./internal/chaos
	$(GOTEST_GATE) -run 'TestColl' ./internal/chaos
	$(GOTEST_GATE) -run 'TestAllReduceCanonicalOrder' ./internal/core
	$(GOTEST_GATE) -run 'TestRejoinFixedSeeds|TestBrokenRejoinCaught' ./internal/chaos
	$(GOTEST_GATE) -run 'TestSpaceChurn' ./internal/chaos
	$(GOTEST_GATE) -race -run 'TestMatrixFixedSeeds/^(update|adaptive)$$/lossy' ./internal/chaos
	$(GOTEST_GATE) -race -run 'TestCollTopologyCells/update/tree\+agg/lossy' ./internal/chaos
	$(GOTEST_GATE) -race -run 'TestRejoinFixedSeeds/update/jittery' ./internal/chaos
	$(GOTEST_GATE) -race -run 'TestSpaceChurnFixedSeeds/update/lossy' ./internal/chaos
	$(GOTEST_GATE) -race -run 'TestLookupServedWhileHomeEngineHeld|TestBroadcastMapsWithoutLookup|TestRejoinVsTreeReduction|TestResetWithdrawsFastBits' ./internal/core
	$(GOTEST_GATE) -race -cpu 1,4 -count=5 -run 'TestPeerLossPurgesCollectiveState|TestDuplicatePeerDownFirstWins|TestTreeBarrierLaneOverlapStress|TestDispatchSyncStress|TestLifecycleMismatchFailsEverywhere' ./internal/core
	$(GOTEST_GATE) -race -cpu 1,4 -count=5 -run 'TestAdaptiveControllerUnderFaults' ./proto
	$(GOTEST_GATE) -race -cpu 1,4 -count=5 -run 'TestKillLinkUnderCluster|TestKillLinkFromAcceptorSide|TestReaderDispatchNeverWaitsOnJournal|TestAcksRideDataFrames|TestInlineTailWrittenFirst' ./internal/tcpnet
	$(GOTEST_GATE) -race -cpu 1,4 -count=5 -run 'TestDirectDispatchMixedKeepsOrderAndSerializesLanes' ./internal/amnet

# cluster-smoke is the multi-process deployment gate: 4 real acenode
# processes assemble over gossip + TCP on loopback, run em3d (every
# rank's checksum must match the in-process run), a SIGKILLed member
# must surface as ErrPeerLost on every survivor within the detector
# bound, and a SIGKILLed em3d member rejoins from its checkpoint.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# gate-smoke is the session-gateway deployment gate: a real acegate
# process on loopback takes scripted websocket probe fleets (checksum
# parity across every member of a room), re-creates its rooms in
# recycled space slots on a rerun, shrugs off garbage connections, and
# must exit with rooms created == destroyed (no leaked spaces).
gate-smoke:
	bash scripts/gate_smoke.sh

# bench-allocs is the regression gate for the paths that must not
# allocate: a hit bracket, whether it is only counted (disabled) or also
# timed (metrics), the same hit between a Map and an Unmap (mapped), a
# logged write hit (logged: a staticupdate home write, whose close also
# keeps the region on the write log), a Bare hit pair (bare: the form
# direct dispatch compiles a bracket with a null partner to), and a
# barrier round, whose tree-round state is reused from a free list. It
# fails when go test fails, when any of the six result lines is
# missing, and when any reports nonzero allocs/op. Then it runs the
# allocation pins that are tests — a remote sc read miss, a staticupdate
# barrier push round and a tcpnet round trip — and fails unless each
# one ran and passed.
ALLOC_PINS := TestRemoteReadMissDoesNotAllocate|TestStaticUpdatePushDoesNotAllocate|TestRoundTripDoesNotAllocate
bench-allocs:
	@out=$$($(GO) test -bench 'BenchmarkBracket/(disabled|metrics|mapped|logged|bare)$$|BenchmarkCollectives/GlobalBarrier/procs=4$$' -benchmem -benchtime=200ms -run '^$$' .); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then echo "FAIL: go test -bench exited $$status"; exit 1; fi; \
	echo "$$out" | awk '{ name = $$1; sub(/-[0-9]+$$/, "", name) } \
		name ~ /^(BenchmarkBracket\/(disabled|metrics|mapped|logged|bare)|BenchmarkCollectives\/GlobalBarrier\/procs=4)$$/ { seen[name] = 1; \
			if ($$(NF-1) + 0 != 0) { print "FAIL: allocates: " $$0; bad = 1 } } \
		END { n = split("BenchmarkBracket/disabled BenchmarkBracket/metrics BenchmarkBracket/mapped BenchmarkBracket/logged BenchmarkBracket/bare BenchmarkCollectives/GlobalBarrier/procs=4", want, " "); \
			for (i = 1; i <= n; i++) if (!(want[i] in seen)) { print "FAIL: no " want[i] " result"; bad = 1 } exit bad }'
	@out=$$($(GO) test -count=1 -v -run '^($(ALLOC_PINS))$$' ./internal/core ./proto ./internal/tcpnet); \
	status=$$?; echo "$$out" | grep -E '^(--- |ok|FAIL)'; \
	if [ $$status -ne 0 ]; then echo "FAIL: allocation pins exited $$status"; exit 1; fi; \
	for t in $$(echo '$(ALLOC_PINS)' | tr '|' ' '); do echo "$$out" | grep -q -- "--- PASS: $$t " || { echo "FAIL: $$t did not pass"; exit 1; }; done

# coll-bench runs every collective benchmark once at four processors:
# barrier, all-reduce and broadcast beside SpaceCycle, a room space's
# collective life (NewSpace on a recycled slot, a home GMalloc,
# FreeSpace), which reports the tree rounds it enters as rounds/op.
coll-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectives/.*/procs=4$$' -benchtime 1x .

# examples-smoke runs three examples end to end: customproto, a
# protocol built from the proto package's building blocks, must end with
# its success line; quickstart must count every increment under both
# protocols; and em3d, the Section 3.3 walkthrough, must compute the
# identical result under sc, dynamic update and static update. Then
# every MiniAce example must run on four processors and print one line
# per processor, and every Table 4 kernel source must compile.
examples-smoke:
	@out=$$($(GO) run ./examples/customproto 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ] || [ "$$(echo "$$out" | tail -n 1)" != "custom protocol ran correctly" ]; then \
		echo "FAIL: examples/customproto"; exit 1; fi
	@out=$$($(GO) run ./examples/quickstart 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ] || ! echo "$$out" | grep -q 'counter = 400 (want 400)' || \
		! echo "$$out" | grep -q 'counter = 800 (want 800)'; then \
		echo "FAIL: examples/quickstart"; exit 1; fi
	@out=$$($(GO) run ./examples/em3d 2>&1); status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ] || [ "$$(echo "$$out" | tail -n 1)" != "all protocols computed identical results" ]; then \
		echo "FAIL: examples/em3d"; exit 1; fi
	@for f in examples/miniace/*.ace; do \
		out=$$($(GO) run ./cmd/acerun -procs 4 $$f 2>&1); status=$$?; echo "$$out"; \
		if [ $$status -ne 0 ] || [ $$(echo "$$out" | grep -c '^proc ') -ne 4 ]; then \
			echo "FAIL: acerun $$f"; exit 1; fi; \
	done
	@for f in internal/table4/*.ace; do \
		$(GO) run ./cmd/acec -counts $$f || { echo "FAIL: acec $$f"; exit 1; }; \
	done

# paper-smoke runs every paper-scale evaluation benchmark once (Figure
# 7a, Figure 7b, Table 4), so the commands EXPERIMENTS.md regenerates
# its tables with keep building and running.
paper-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7a|BenchmarkFig7b|BenchmarkTable4' -benchtime 1x .
