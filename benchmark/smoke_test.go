package main

import (
	"slices"
	"sort"
	"testing"
)

func sortedKeys(m map[string]Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload, plain and traced with the layer probes,
// on the small input, and requires correct output, no failed op, and
// exactly the workload and metric names BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayers, wantNames, gotNames []string
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	for _, w := range spec.Workloads {
		wantNames = append(wantNames, w.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)

	for _, w := range workloads() {
		gotNames = append(gotNames, w.name)
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.5, smoke: true, trace: traced, outDir: t.TempDir()}
			res := runWorkload(w, o)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Error)
				continue
			}
			want := wantE2E
			if traced {
				want = wantLayers
			}
			if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			for _, name := range wantE2E {
				if !traced && res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want positive", w.name, name, res.Metrics[name].Value)
				}
			}
		}
	}
	if !slices.Equal(gotNames, wantNames) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", gotNames, wantNames)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) gives 2.75 and 8.25; median 5.5.
	vs := []float64{3, 1, 2, 10, 5, 4, 7, 6, 9, 8}
	if got, want := quartileSpread(vs), 1.0; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
