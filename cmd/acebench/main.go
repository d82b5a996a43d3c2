// Command acebench regenerates the paper's evaluation artifacts:
//
//	acebench -exp fig7a    # Ace runtime vs CRL, sequentially consistent
//	acebench -exp fig7b    # single protocol vs application-specific protocols
//	acebench -exp table4   # compiler optimization levels vs hand-written code
//	acebench -exp ablation # URC capacity, latency sensitivity, granularity
//	acebench -exp chaos    # protocol-conformance stress matrix under fault injection
//	acebench -exp all      # fig7a, fig7b and table4
//
// The chaos experiment runs every library protocol through a seeded
// region workload under each named fault policy and checks the
// coherence invariants; a failure prints a replay command. Replaying a
// single cell of the matrix:
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
		exp      = flag.String("exp", "all", "experiment: fig7a, fig7b, table4, ablation, chaos, or all")
		procs    = flag.Int("procs", 8, "number of logical processors")
		scale    = flag.String("scale", "default", "workload scale: small, default, or paper")
		runs     = flag.Int("runs", 3, "runs per measurement (best run reported)")
		metrics  = flag.Bool("metrics", false, "instrumented mode: print metrics for one -app run")
		traceOut = flag.String("trace", "", "instrumented mode: write Chrome trace JSON for one -app run to `file`")
		app      = flag.String("app", "em3d", "benchmark for instrumented mode: "+strings.Join(bench.AppNames(), ", "))
		custom   = flag.Bool("custom", false, "instrumented mode: use the application-specific protocol")
		events   = flag.Int("events", 1<<16, "instrumented mode: per-processor event ring capacity for -trace")

		chaosProto  = flag.String("chaos-proto", "", "chaos experiment: replay a single protocol instead of the matrix")
		chaosPolicy = flag.String("chaos-policy", "clean", "chaos experiment: fault policy for -chaos-proto ("+strings.Join(chaos.Policies(), ", ")+")")
		chaosSeed   = flag.Int64("chaos-seed", 1, "chaos experiment: base seed (single run: the seed; matrix: seed, seed+1, seed+2)")
	)
	flag.Parse()

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
	case "chaos":
		ok = runChaos(*chaosProto, *chaosPolicy, *chaosSeed, *procs)
	case "all":
		ok = runFig7a(w, *runs)
		ok = runFig7b(w, *runs) && ok
		ok = runTable4(*procs) && ok
	default:
		fmt.Fprintf(os.Stderr, "acebench: unknown experiment %q (fig7a, fig7b, table4, ablation, chaos, all)\n", *exp)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runChaos runs the protocol-conformance stress harness: a single
// (protocol, policy, seed) cell when -chaos-proto is given (the replay
// path printed by failing reports), the full matrix over three seeds
// otherwise.
func runChaos(protoName, policy string, seed int64, procs int) bool {
	if protoName != "" {
		rep := chaos.Run(chaos.Config{Seed: seed, Procs: procs, Protocol: protoName, Policy: policy})
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
