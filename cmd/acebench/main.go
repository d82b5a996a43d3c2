// Command acebench regenerates the paper's evaluation artifacts:
//
//	acebench -exp fig7a   # Ace runtime vs CRL, sequentially consistent
//	acebench -exp fig7b   # single protocol vs application-specific protocols
//	acebench -exp table4  # compiler optimization levels vs hand-written code
//	acebench -exp chaos   # protocol-conformance stress matrix under fault injection
//	acebench -exp adapt   # adaptive controller vs sc and hand-picked protocols (BENCH_adapt.json)
//	acebench -exp coll    # collective topologies + push aggregation traffic (BENCH_coll.json)
//	acebench -exp gate    # session gateway: 10k ws sessions over 100+ room-spaces (BENCH_gate.json)
//	acebench -exp all
//
// The chaos experiment runs every library protocol through a seeded
// region workload under each named fault policy and checks the
// coherence invariants; a failure prints a replay command. Replaying a
// single cell of the matrix (with -chaos-coll / -chaos-noagg forcing
// the collective topology and aggregation setting of the failing run):
//
//	acebench -exp chaos -chaos-proto update -chaos-policy lossy -chaos-seed 7
//
// Workload sizes are selected with -scale (small | default | paper) and the
// processor count with -procs. Times are wall-clock on the in-process
// cluster; the comparisons' shape, not the absolute numbers, is the
// reproduction target (see EXPERIMENTS.md).
//
// The -metrics and -trace flags switch acebench into instrumented mode:
// instead of an experiment it runs the single benchmark named by -app on
// the Ace runtime with the observability layer enabled, printing the
// metrics tables (-metrics) and/or writing the event trace as Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto (-trace):
//
//	acebench -metrics -app em3d
//	acebench -trace out.json -app tsp -custom
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/chaos"
	"github.com/acedsm/ace/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig7a, fig7b, table4, or all")
		procs    = flag.Int("procs", 8, "number of logical processors")
		scale    = flag.String("scale", "default", "workload scale: small, default, or paper")
		runs     = flag.Int("runs", 3, "runs per measurement (best run reported)")
		metrics  = flag.Bool("metrics", false, "instrumented mode: print metrics for one -app run")
		traceOut = flag.String("trace", "", "instrumented mode: write Chrome trace JSON for one -app run to `file`")
		app      = flag.String("app", "em3d", "benchmark for instrumented mode: "+strings.Join(bench.AppNames(), ", "))
		custom   = flag.Bool("custom", false, "instrumented mode: use the application-specific protocol")
		events   = flag.Int("events", 1<<16, "instrumented mode: per-processor event ring capacity for -trace")
		out      = flag.String("out", "", "artifact-writing experiments: output `file` (default BENCH_<exp>.json)")
		baseline = flag.String("baseline", "", "bracket experiment: prior report to embed as the comparison baseline")

		chaosProto  = flag.String("chaos-proto", "", "chaos experiment: replay a single protocol instead of the matrix")
		chaosPolicy = flag.String("chaos-policy", "clean", "chaos experiment: fault policy for -chaos-proto ("+strings.Join(chaos.Policies(), ", ")+")")
		chaosSeed   = flag.Int64("chaos-seed", 1, "chaos experiment: base seed (single run: the seed; matrix: seed, seed+1, seed+2)")
		chaosColl   = flag.String("chaos-coll", "", "chaos experiment: force the collective topology for -chaos-proto (star, tree; empty = auto)")
		chaosNoAgg  = flag.Bool("chaos-noagg", false, "chaos experiment: disable push aggregation for -chaos-proto")

		gateSessions = flag.Int("gate-sessions", 10000, "gate experiment: concurrent client sessions")
		gateRooms    = flag.Int("gate-rooms", 128, "gate experiment: rooms the sessions spread over")
		gateAdds     = flag.Int("gate-adds", 8, "gate experiment: adds per session")
		gateWorker   = flag.Bool("gate-worker", false, "internal: run as a gate-experiment session worker")
		gateAddr     = flag.String("gate-addr", "", "internal: gateway address for -gate-worker")
		gateOffset   = flag.Int("gate-offset", 0, "internal: first global session id for -gate-worker")
	)
	flag.Parse()

	if *gateWorker {
		// Session-worker subprocess launched by `-exp gate` (see
		// bench.GateWorkerArgs); it owns a slice of the client sessions so
		// the parent's descriptor budget covers only the server side.
		if err := bench.RunGateWorker(*gateAddr, *gateOffset, *gateSessions, *gateRooms, *gateAdds); err != nil {
			os.Exit(1)
		}
		return
	}

	w := bench.WorkloadsFor(bench.Scale(*scale), *procs)
	if *metrics || *traceOut != "" {
		if !runObserved(w, *app, *custom, *metrics, *traceOut, *events) {
			os.Exit(1)
		}
		return
	}
	ok := true
	switch *exp {
	case "fig7a":
		ok = runFig7a(w, *runs)
	case "fig7b":
		ok = runFig7b(w, *runs)
	case "table4":
		ok = runTable4(*procs)
	case "ablation":
		ok = runAblation(*procs)
	case "bracket":
		ok = runBracket(*procs, reportPath(*out, "BENCH_bracket.json"), *baseline)
	case "adapt":
		ok = runAdapt(w, *runs, reportPath(*out, "BENCH_adapt.json"))
	case "chaos":
		ok = runChaos(*chaosProto, *chaosPolicy, *chaosSeed, *procs, *chaosColl, *chaosNoAgg)
	case "coll":
		ok = runColl(w, bench.Scale(*scale), reportPath(*out, "BENCH_coll.json"))
	case "elastic":
		ok = runElastic(w, reportPath(*out, "BENCH_elastic.json"))
	case "gate":
		ok = runGate(*gateSessions, *gateRooms, *gateAdds, *procs, reportPath(*out, "BENCH_gate.json"))
	case "all":
		ok = runFig7a(w, *runs)
		ok = runFig7b(w, *runs) && ok
		ok = runTable4(*procs) && ok
	default:
		fmt.Fprintf(os.Stderr, "acebench: unknown experiment %q (fig7a, fig7b, table4, ablation, bracket, adapt, chaos, coll, elastic, gate, all)\n", *exp)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runAdapt runs the adaptive-convergence experiment — every fig-7b
// benchmark started on sc with the online protocol controller enabled,
// compared against controller-off sc and the hand-picked protocols —
// and writes the BENCH_adapt.json artifact.
func runAdapt(w bench.Workloads, runs int, out string) bool {
	fmt.Printf("=== Adaptive: controller-selected protocols vs sc and hand-picked (%d procs) ===\n", w.Procs)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adapt: %v\n", err)
		return false
	}
	rep, err := bench.WriteAdaptReport(f, w, runs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adapt: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatAdapt(rep.Results))
	fmt.Printf("wrote %s\n", out)
	ok := true
	for _, r := range rep.Results {
		if !r.ChecksumOK {
			fmt.Fprintf(os.Stderr, "adapt: %s: adaptive run diverged from sc (checksum mismatch)\n", r.App)
			ok = false
		}
	}
	return ok
}

// runChaos runs the protocol-conformance stress harness: a single
// (protocol, policy, seed) cell when -chaos-proto is given (the replay
// path printed by failing reports, including any forced collective
// topology and aggregation setting), the full matrix over three seeds
// otherwise.
func runChaos(protoName, policy string, seed int64, procs int, coll string, noAgg bool) bool {
	if protoName != "" {
		rep := chaos.Run(chaos.Config{Seed: seed, Procs: procs, Protocol: protoName, Policy: policy, Coll: coll, NoAgg: noAgg})
		fmt.Println(chaos.FormatReport(rep))
		return rep.Err == nil
	}
	seeds := []int64{seed, seed + 1, seed + 2}
	fmt.Printf("=== Chaos: %d protocols × %d fault policies × seeds %v (%d procs) ===\n",
		len(chaos.Protocols()), len(chaos.Policies()), seeds, procs)
	failed := chaos.RunMatrix(seeds, procs)
	if len(failed) == 0 {
		fmt.Printf("all %d runs held the coherence invariants\n",
			len(chaos.Protocols())*len(chaos.Policies())*len(seeds))
		return true
	}
	for _, rep := range failed {
		fmt.Println(chaos.FormatReport(rep))
	}
	fmt.Fprintf(os.Stderr, "chaos: %d of %d runs failed\n",
		len(failed), len(chaos.Protocols())*len(chaos.Policies())*len(seeds))
	return false
}

// runElastic measures the elastic-membership costs — rejoin from the
// last collective checkpoint vs a cold restart (same bit-identical
// checksum, fewer replayed steps and messages) and the adaptive
// controller's traffic-driven region re-homing — writes the
// BENCH_elastic.json artifact, and enforces the acceptance gates.
func runElastic(w bench.Workloads, out string) bool {
	fmt.Printf("=== Elastic: checkpoint/rejoin vs cold restart, traffic-driven re-homing (%d procs) ===\n", w.Procs)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "elastic: %v\n", err)
		return false
	}
	rep, err := bench.WriteElasticReport(f, w)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "elastic: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatElastic(rep))
	fmt.Printf("wrote %s\n", out)
	if err := bench.CheckElasticGates(rep); err != nil {
		fmt.Fprintf(os.Stderr, "elastic: acceptance gates failed:\n%v\n", err)
		return false
	}
	fmt.Println("acceptance gates held: bit-identical rejoin below cold-restart cost, >=1 traffic-driven migration")
	return true
}

// runColl measures the collective micro-ops on both topologies across
// cluster sizes and EM3D's per-step coherence traffic with aggregation
// on and off, writes the BENCH_coll.json artifact, and enforces the
// structural acceptance gates: aggregation must cut EM3D's msgs/step at
// least 2x, and the tree must hold allreduce root fan-out to the log
// bound (flat-to-improving against the embedded star baseline).
func runColl(w bench.Workloads, scale bench.Scale, out string) bool {
	fmt.Printf("=== Collectives: star vs binomial tree, push aggregation on vs off (%d em3d procs) ===\n", w.Procs)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coll: %v\n", err)
		return false
	}
	rep, err := bench.WriteCollReport(f, w, scale)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "coll: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatColl(rep))
	fmt.Printf("wrote %s\n", out)
	if err := bench.CheckCollGates(rep); err != nil {
		fmt.Fprintf(os.Stderr, "coll: acceptance gates failed:\n%v\n", err)
		return false
	}
	fmt.Println("acceptance gates held: >=2x msgs/step from aggregation, tree root fan-out within log bound")
	return true
}

// runObserved runs one benchmark on the Ace runtime with the
// observability layer on, printing metrics and/or writing a Chrome
// trace.
func runObserved(w bench.Workloads, app string, custom, metrics bool, traceOut string, events int) bool {
	fn, ok := bench.App(w, app, custom)
	if !ok {
		fmt.Fprintf(os.Stderr, "acebench: unknown app %q (%s)\n", app, strings.Join(bench.AppNames(), ", "))
		return false
	}
	cfg := &trace.Config{Metrics: true}
	if traceOut != "" {
		cfg.Events = events
	}
	o, err := bench.RunAceObserved(w.Procs, fn, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acebench: %s: %v\n", app, err)
		return false
	}
	proto := "sc"
	if custom {
		proto = "custom"
	}
	fmt.Printf("=== %s (%s protocol, %d procs): %v total ===\n", app, proto, w.Procs, o.Result.Total)
	if metrics {
		fmt.Println(bench.FormatMetrics(o.Metrics))
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acebench: %v\n", err)
			return false
		}
		werr := trace.WriteChromeTrace(f, o.Events, w.Procs)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "acebench: writing %s: %v\n", traceOut, werr)
			return false
		}
		fmt.Printf("wrote %d events to %s (load in chrome://tracing or Perfetto)\n", len(o.Events), traceOut)
	}
	return true
}

// reportPath returns out, or def when out is empty.
func reportPath(out, def string) string {
	if out == "" {
		return def
	}
	return out
}

// runBracket measures the runtime's section brackets (hit solo, hit
// under concurrent coherence churn, miss) and writes the
// BENCH_bracket.json artifact. A prior report passed with -baseline is
// embedded so the artifact documents the before/after delta.
func runBracket(procs int, out, baselinePath string) bool {
	const (
		hitOps  = 4000000
		missOps = 30000
	)
	var base []bench.BracketResult
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bracket: %v\n", err)
			return false
		}
		var prior bench.BracketReport
		if err := json.Unmarshal(raw, &prior); err != nil {
			fmt.Fprintf(os.Stderr, "bracket: parsing %s: %v\n", baselinePath, err)
			return false
		}
		// A report that already embeds the pre-fast-path baseline keeps
		// it, so regenerating the artifact stays anchored to the original
		// comparison point.
		base = prior.Baseline
		if base == nil {
			base = prior.Results
		}
	}
	fmt.Printf("=== Bracket: section open/close cost, hit and miss (%d procs) ===\n", procs)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bracket: %v\n", err)
		return false
	}
	rep, err := bench.WriteBracketReport(f, procs, hitOps, missOps, base)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bracket: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatBracket(rep.Results, rep.Baseline))
	fmt.Printf("wrote %s\n", out)
	return true
}

func runFig7a(w bench.Workloads, runs int) bool {
	fmt.Printf("=== Figure 7a: Ace runtime vs CRL (sequentially consistent, %d procs) ===\n", w.Procs)
	rows, err := bestRows(runs, func() ([]bench.Row, error) { return bench.Fig7a(w) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig7a: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatRows(rows, "crl", "ace"))
	fmt.Println()
	return true
}

func runFig7b(w bench.Workloads, runs int) bool {
	fmt.Printf("=== Figure 7b: single (SC) protocol vs application-specific protocols (%d procs) ===\n", w.Procs)
	rows, err := bestRows(runs, func() ([]bench.Row, error) { return bench.Fig7b(w) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig7b: %v\n", err)
		return false
	}
	fmt.Println(bench.FormatRows(rows, "sc", "custom"))
	fmt.Println()
	return true
}

func runTable4(procs int) bool {
	fmt.Printf("=== Table 4: compiler optimization levels vs hand-written runtime code (%d procs) ===\n", procs)
	out, err := bench.Table4(procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table4: %v\n", err)
		return false
	}
	fmt.Println(out)
	return true
}

func runAblation(procs int) bool {
	fmt.Printf("=== Ablations: URC capacity, latency sensitivity, granularity (%d procs) ===\n", procs)
	out, err := bench.Ablations(procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ablation: %v\n", err)
		return false
	}
	fmt.Println(out)
	return true
}

// bestRows runs the experiment `runs` times and keeps, per benchmark, the
// run with the lowest combined time — the usual noise reduction for
// wall-clock measurements on a shared machine.
func bestRows(runs int, f func() ([]bench.Row, error)) ([]bench.Row, error) {
	var best []bench.Row
	for i := 0; i < runs; i++ {
		rows, err := f()
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = rows
			continue
		}
		for j := range rows {
			if rows[j].Base.TimePerIter+rows[j].Opt.TimePerIter <
				best[j].Base.TimePerIter+best[j].Opt.TimePerIter {
				best[j] = rows[j]
			}
		}
	}
	return best, nil
}

// runGate runs the session-gateway load benchmark — ten-thousand-class
// concurrent websocket sessions over a hundred-plus room-spaces on
// loopback, with churn and malformed-frame phases — writes the
// BENCH_gate.json artifact, and enforces the gates (concurrency floor,
// checksum parity, bounded space table, zero panics) in the run.
func runGate(sessions, rooms, adds, procs int, out string) bool {
	fmt.Printf("=== Gate: %d sessions over %d rooms, %d procs ===\n", sessions, rooms, procs)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gate: %v\n", err)
		return false
	}
	cfg := bench.GateConfig{Sessions: sessions, Rooms: rooms, Adds: adds, Procs: procs}
	// Hold the client sessions in worker subprocesses so the parent's
	// RLIMIT_NOFILE budget covers only the server-side sockets.
	if exe, err := os.Executable(); err == nil {
		cfg.WorkerExec = []string{exe}
		cfg.Workers = 2
	}
	rep, err := bench.WriteGateReport(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rep != nil {
		fmt.Printf("connect+join %d sessions: %.2fs (%.0f joins/s)\n",
			rep.Sessions, rep.ConnectSecs, rep.JoinsPerSec)
		fmt.Printf("apply %d ops: %.2fs (%.0f ops/s), broadcasts %d, send-queue drops %d\n",
			rep.Sessions*rep.Adds, rep.ApplySecs, rep.OpsPerSec,
			rep.Stats.Broadcasts, rep.Stats.SendQueueDrops)
		fmt.Printf("churn %d waves x %d rooms: table %d -> %d slots (bound %d); malformed frames %d (bad %d)\n",
			rep.ChurnWaves, rep.ChurnRooms, rep.SlotsBeforeChurn, rep.SlotsAfterChurn,
			rep.SlotsBound, rep.Malformed, rep.Stats.BadFrames)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gate: %v\n", err)
		return false
	}
	fmt.Printf("wrote %s\n", out)
	fmt.Println("acceptance gates held: concurrency floor, checksum parity, bounded space table, zero panics")
	return true
}
