// Command benchmark is the repository's one benchmark: three EM3D
// workloads on the DSM and three websocket workloads through the session
// gateway, each checked for correct output, plus a probe at every module
// boundary and a traced run. README.md beside this file has the metric
// tables and the reasons for each workload.
//
//	bash benchmark/run.sh --workload em3d.sc --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh                    # every workload, plain then traced
//	bash benchmark/run.sh -compare a.json b.json
//
// Everything is measured from outside: the benchmark calls the packages'
// public functions and reads their public counters, and touches no file of
// the repository outside its own directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Names and units of the end-to-end metrics. The work unit is a time step
// on em3d.*, an acknowledged op on gate.pipelined and gate.pingpong, and a
// join→add→delta→leave cycle on gate.churn.
const (
	mThroughput = "throughput_per_s"
	mLatency    = "latency_p50_us"
	mSetup      = "setup_s"
)

// options are the settings of one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// check, if set, runs before the timed repetitions and returns an
	// error when the program's output is wrong.
	check func(o options) error
	// rep runs one repetition: set-up, a timed window, verification and
	// teardown. window is the timed length a gate.* repetition uses; em3d.*
	// repetitions time a fixed number of steps instead.
	rep func(o options, window time.Duration, traced bool, sl *spanLog, parent int) (repResult, error)
}

// repResult is what one repetition measured.
type repResult struct {
	setup    time.Duration // wall time outside the timed window
	window   time.Duration // the timed window
	units    int64         // work units completed inside the window
	latP50   float64       // µs, median time of one unit
	latP99   float64       // µs
	samples  int           // latency samples behind the percentiles
	sent     int64         // units attempted
	failed   int64
	counters map[string]float64 // layer counters read around the window
}

func workloads() []workload {
	return []workload{
		em3dWorkload("em3d.sc", "", false),
		em3dWorkload("em3d.su", "staticupdate", false),
		em3dWorkload("em3d.sc.tcp", "", true),
		gateWorkload("gate.pipelined", gatePipelined),
		gateWorkload("gate.pingpong", gatePingpong),
		gateWorkload("gate.churn", gateChurn),
	}
}

// Result is one workload's outcome. The first four fields are the line
// the driver reads; the rest goes into the result file.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Info holds what is reported but not gated: tail percentiles, sample
	// counts, peak memory.
	Info map[string]Metric `json:"info,omitempty"`
	// Samples holds the per-repetition values behind each end-to-end
	// median, from which -compare takes the spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Error   string               `json:"error,omitempty"`
}

// minReps is the fewest repetitions a run makes: a traced run needs one
// plain and one traced repetition to state the tracing overhead.
const minReps = 2

// gateRepsPerRun sets a gate.* repetition's timed window: a run's seconds
// divided by it, so a run holds about that many repetitions, each with its
// own set-up.
const gateRepsPerRun = 12

// runWorkload runs w's check and then repetitions until they have used
// o.seconds of wall time. With o.trace the repetitions alternate plain and
// traced, the layer probes run afterwards, and the metrics are the
// per-layer set instead of the end-to-end set.
func runWorkload(w workload, o options) Result {
	res := Result{Metrics: map[string]Metric{}, Info: map[string]Metric{}, Samples: map[string][]float64{}}
	fail := func(err error) Result {
		res.Correct = false
		res.Error = err.Error()
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		res.Failed = res.Attempted
		return res
	}
	var sl *spanLog
	if o.trace {
		sl = newSpanLog()
	}
	root := sl.begin("workload "+w.name, 0)

	checkSpan := sl.begin("check", root)
	checkStart := time.Now()
	if w.check != nil {
		if err := w.check(o); err != nil {
			return fail(fmt.Errorf("%s: check: %w", w.name, err))
		}
	}
	checkTime := time.Since(checkStart)
	sl.end(checkSpan)

	window := time.Duration(o.seconds / gateRepsPerRun * float64(time.Second))
	var plain, traced []repResult
	var used time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; used < budget || i < minReps; i++ {
		withTrace := o.trace && i%2 == 1
		repSpan := sl.begin(fmt.Sprintf("rep[%d]", i), root)
		start := time.Now()
		r, err := w.rep(o, window, withTrace, sl, repSpan)
		used += time.Since(start)
		sl.end(repSpan)
		if err != nil {
			return fail(fmt.Errorf("%s: rep %d: %w", w.name, i, err))
		}
		res.Attempted += r.sent
		res.Failed += r.failed
		if withTrace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	res.Correct = true

	pick := func(rs []repResult, f func(repResult) float64) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	tput := func(r repResult) float64 { return float64(r.units) / r.window.Seconds() }
	res.Samples[mThroughput] = pick(plain, tput)
	res.Samples[mLatency] = pick(plain, func(r repResult) float64 { return r.latP50 })
	res.Samples[mSetup] = pick(plain, func(r repResult) float64 { return r.setup.Seconds() })
	e2e := map[string]Metric{
		mThroughput: {betterHalfMedian(res.Samples[mThroughput], true), "1/s"},
		mLatency:    {betterHalfMedian(res.Samples[mLatency], false), "us"},
		mSetup:      {betterHalfMedian(res.Samples[mSetup], false), "s"},
	}
	samples := 0
	for _, r := range plain {
		samples += r.samples
	}
	res.Info["latency_p99_us"] = Metric{median(pick(plain, func(r repResult) float64 { return r.latP99 })), "us"}
	res.Info["latency_samples"] = Metric{float64(samples), "count"}
	res.Info["reps"] = Metric{float64(len(plain) + len(traced)), "count"}
	res.Info["check_s"] = Metric{checkTime.Seconds(), "s"}
	res.Info["peak_rss_mb"] = Metric{peakRSSMB(), "MB"}

	if !o.trace {
		res.Metrics = e2e
		return res
	}
	for k, v := range e2e {
		res.Info[k] = v
	}

	// The traced half: counters from the traced repetitions, the probes,
	// the tracing overhead and the first latency budget.
	layers, err := runProbes(o, sl, root)
	if err != nil {
		return fail(fmt.Errorf("%s: layer probes: %w", w.name, err))
	}
	for _, c := range counters {
		layers[c.name] = Metric{median(pick(traced, func(r repResult) float64 { return r.counters[c.name] })), c.unit}
	}
	layers["trace.overhead_frac"] = Metric{1 - betterHalfMedian(pick(traced, tput), true)/e2e[mThroughput].Value, "ratio"}
	layers["budget.unattributed_frac"] = Metric{unattributed(w.name, layers, e2e, sl), "ratio"}
	res.Metrics = layers
	sl.end(root)
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := sl.write(path); err != nil {
		return fail(err)
	}
	return res
}

// unattributed is the share of one work unit's median time that the layer
// probes do not account for: the number in-program tracing has to drive
// down. On gate.* the attributed part is frame decode, one write bracket
// and frame encode, plus the client's write (mean span) on the op
// workloads and the space's collective life on gate.churn; on em3d.* it is
// one processor's share of the step's remote misses and bracket hits plus
// the step's two barriers.
func unattributed(name string, layers, e2e map[string]Metric, sl *spanLog) float64 {
	unitNS := e2e[mLatency].Value * 1e3
	var ns float64
	if strings.HasPrefix(name, "gate.") {
		ns = layers["gateway.decode_ns"].Value + layers["core.hit_write_ns"].Value + layers["gateway.encode_ns"].Value
		if name == "gate.churn" {
			ns += layers["core.space_cycle_us"].Value * 1e3
		} else {
			ns += sl.meanNS("client.write")
		}
	} else {
		miss := layers["core.miss_read_us"].Value * 1e3
		if strings.HasSuffix(name, ".tcp") {
			miss = layers["tcpnet.rtt_us"].Value * 1e3
		}
		ns = layers["proto.remote_miss_per_step"].Value/em3dProcs*miss +
			layers["core.brackets_per_step"].Value/em3dProcs*layers["core.hit_read_ns"].Value +
			2*layers["core.barrier_us"].Value*1e3
	}
	return 1 - ns/unitNS
}

// envelope is the provenance every result file carries.
type envelope struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Kernel     string            `json:"kernel"`
	Seed       int64             `json:"seed"`
	Scale      string            `json:"scale"`
	Seconds    float64           `json:"seconds_per_workload"`
	Network    string            `json:"network"`
	Started    string            `json:"started"`
	Plain      map[string]Result `json:"plain"`
	Traced     map[string]Result `json:"traced"`
	GateWindow float64           `json:"gate_window_seconds"`
}

func newEnvelope(o options) envelope {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	scale := "full"
	if o.smoke {
		scale = "smoke"
	}
	return envelope{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Kernel: kernel, Seed: o.seed, Scale: scale,
		Seconds: o.seconds, Network: "loopback, single process",
		Started: time.Now().UTC().Format(time.RFC3339),
		Plain:   map[string]Result{}, Traced: map[string]Result{},
		GateWindow: o.seconds / gateRepsPerRun,
	}
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func printTable(name string, res Result) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, set := range []map[string]Metric{res.Metrics, res.Info} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-36s %16.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	for _, k := range []string{mThroughput, mLatency, mSetup} {
		fmt.Printf("  per repetition: %-20s %.6g\n", k, res.Samples[k])
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, plain then traced")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 10, "seconds of repetitions per workload")
		traceOn = flag.Int("trace", 0, "1: alternate plain and traced repetitions, run the layer probes, print the per-layer metrics")
		scale   = flag.String("scale", "full", "full, or smoke for a small input that finishes in about a second")
		outDir  = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "benchmark: GOMAXPROCS %d exceeds the %d CPUs of this host; refusing to measure oversubscribed\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceOn != 0, smoke: *scale == "smoke", outDir: *outDir}
	if *scale != "full" && *scale != "smoke" || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -scale is full or smoke, -seconds is positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	if *name != "" {
		for _, w := range workloads() {
			if w.name != *name {
				continue
			}
			res := runWorkload(w, o)
			printTable(w.name, res)
			if res.Error != "" {
				fmt.Fprintln(os.Stderr, "benchmark:", res.Error)
			}
			// The driver's line: only the four keys without omitempty.
			line, _ := json.Marshal(Result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
			fmt.Println(string(line))
			if !res.Correct {
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
		os.Exit(2)
	}

	env := newEnvelope(o)
	ok := true
	for _, w := range workloads() {
		for _, tr := range []bool{false, true} {
			o.trace = tr
			res := runWorkload(w, o)
			label := w.name
			if tr {
				label += " (traced)"
				env.Traced[w.name] = res
			} else {
				env.Plain[w.name] = res
			}
			printTable(label, res)
			if !res.Correct {
				fmt.Fprintln(os.Stderr, "benchmark:", res.Error)
				ok = false
			}
		}
	}
	path := filepath.Join(o.outDir, "run-"+time.Now().UTC().Format("20060102T150405")+".json")
	buf, _ := json.MarshalIndent(env, "", "  ")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println("results:", path)
	if !ok {
		os.Exit(1)
	}
}
