package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads:
// the end-to-end metrics with the direction and the bound of each.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(buf, &spec)
}

// compareFiles prints, per workload and end-to-end metric, the value in
// each of two result files, their ratio with its base, the bound, and a
// verdict: ok, worse (b is worse than a by more than the bound) or
// unresolved (the spread between repetitions is wider than the bound, so
// the comparison cannot tell). It also requires the exact-count layer
// metrics to be identical. The return value is the exit code: 1 on any
// worse row or differing count.
func compareFiles(a, b string) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: run from the repository root:", err)
		return 2
	}
	var ea, eb envelope
	for path, env := range map[string]*envelope{a: &ea, b: &eb} {
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, env)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Printf("a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n", a, ea.Commit, ea.Seed, b, eb.Commit, eb.Seed)
	fmt.Printf("%-16s %-18s %14s %14s %10s %7s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "spread", "bound", "verdict")
	code := 0
	names := make([]string, 0, len(ea.Plain))
	for name := range ea.Plain {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra, rb := ea.Plain[name], eb.Plain[name]
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			if va == 0 {
				fmt.Printf("%-16s %-18s missing in a\n", name, m.Name)
				code = 1
				continue
			}
			ratio := vb / va
			worse := ratio - 1 // share by which b is worse than a
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			spread := quartileSpread(ra.Samples[m.Name])
			if s := quartileSpread(rb.Samples[m.Name]); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %10.4f %7.3f %7.3f  %s\n", name, m.Name, va, vb, ratio, spread, m.Bound, verdict)
		}
		// Message counts repeat exactly for one seed's graph.
		const exact = "proto.msgs_per_step"
		if ca, cb := ea.Traced[name].Metrics[exact].Value, eb.Traced[name].Metrics[exact].Value; ea.Seed == eb.Seed && ca != cb {
			fmt.Printf("%-16s %-18s %14.6g %14.6g  differs\n", name, exact, ca, cb)
			code = 1
		}
	}
	return code
}
