package bench

// Bracket microbenchmarks: the cost of a StartRead/EndRead or
// StartWrite/EndWrite pair through the runtime, in the three regimes
// that matter for the paper's Table 4 story. A hit bracket (valid
// cached copy, no coherence action) is the overwhelmingly common case
// in E1/E2 steady state and the case the runtime's fast path targets; a
// hit under churn pits the hit loop against a pump saturated with
// incoming protocol traffic, which on a single runtime lock starves the
// application thread; a miss pays a full home round trip. The same
// measurements back the committed BENCH_bracket.json artifact
// (`acebench -exp bracket` or `make bench`).

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/proto"
)

// BracketResult is one bracket measurement, JSON-shaped for
// BENCH_bracket.json.
type BracketResult struct {
	Name      string  `json:"name"` // e.g. "hit/churn"
	Procs     int     `json:"procs"`
	Ops       int     `json:"ops"` // bracket pairs measured
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	NsPerOp   float64 `json:"ns_per_op"`
	// ChurnOps counts the update writes the flooding processors shipped
	// to processor 0's pump while the hit loop ran (hit/churn only) —
	// evidence the coherence engine was saturated for the whole window.
	ChurnOps int64 `json:"churn_ops,omitempty"`
	// AppCPUSeconds is the CPU time the measuring application thread
	// itself consumed during the window (hit/churn only, Linux only).
	// Comparing it against Seconds separates the two ways a runtime can
	// lose hit throughput under churn: doing more work per bracket
	// (CPU/op rises) versus losing the processor to the pump while parked
	// on a shared lock (wall/op rises, CPU/op does not). Only the second
	// is visible on a host with a single hardware context, and only the
	// first costs anything there — see DESIGN.md.
	AppCPUSeconds float64 `json:"app_cpu_seconds,omitempty"`
}

// BracketReport is the BENCH_bracket.json document.
type BracketReport struct {
	Generated  string          `json:"generated_by"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Results    []BracketResult `json:"results"`
	// Baseline, when present, carries the same measurements taken at the
	// pre-fast-path commit, so the artifact itself documents the delta.
	Baseline []BracketResult `json:"pre_fastpath_baseline,omitempty"`
}

// bracketHitSolo measures ops read-bracket pairs on a home region with a
// quiet pump: the pure per-bracket runtime overhead.
func bracketHitSolo(ops int) (time.Duration, error) {
	cl, err := core.NewCluster(core.Options{Procs: 1})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var el time.Duration
	err = cl.Run(func(p *core.Proc) error {
		id := p.GMalloc(p.DefaultSpace(), 64)
		r := p.Map(id)
		start := time.Now()
		for i := 0; i < ops; i++ {
			p.StartRead(r)
			p.EndRead(r)
		}
		el = time.Since(start)
		return nil
	})
	return el, err
}

// Churn workload shape. The flood regions are realistically sized:
// applying a multi-KB update means the pump holds whatever lock protects
// the region for the full payload copy, so a runtime that serializes
// handler work against the application thread's brackets stalls the hit
// loop for microseconds at a time.
const (
	churnRegionBytes = 16 * 1024
	// churnFloodBatch is how many one-way updates a flooder ships
	// between throttling round trips. The fabric's mailboxes are
	// unbounded, so the flood must bound its own backlog: per-pair FIFO
	// ordering means a round trip to the home is served only after the
	// batch preceding it has been dispatched, capping the queue at
	// roughly one batch per flooder.
	churnFloodBatch = 64
	// churnWindow is the measured interval. The churn workload is fixed
	// in time, not in operations: the pump's progress through the flood
	// is not part of the metric, only the hit throughput the application
	// thread sustains while the flood lasts. (A fixed-operation design
	// cannot work on a host with fewer hardware contexts than emulated
	// processors: with both sides' work fixed, total wall time is just
	// total CPU consumed, and locking discipline only reorders that sum.)
	churnWindow = 300 * time.Millisecond
)

// bracketHitChurn measures the hit read-bracket throughput processor 0's
// application thread sustains over a fixed window while processor 0's
// pump is saturated with coherence work. Processor 1 writes a
// churnRegionBytes region of an "update" space homed at processor 0 in a
// tight loop: remote EndWrite in an update protocol ships the payload
// home one-way, so the flooder never blocks on round trips. Processors
// 2..n-1 register as sharers of that region and then park in the closing
// barrier — their only role is fan-out: every incoming update makes
// processor 0's pump apply the payload and re-send it to every sharer,
// multiplying the work (and, on a single-lock runtime, the lock hold
// time) per flooded byte. The hit region lives in a different space
// entirely — on a runtime with one lock per processor the unrelated
// flood still stalls every bracket, while decoupled engines leave the
// hit loop untouched. Returns the hit ops completed, the window's exact
// elapsed wall and application-thread CPU time, and the number of
// updates shipped.
func bracketHitChurn(procs int, window time.Duration) (int, time.Duration, time.Duration, int64, error) {
	if procs < 3 {
		return 0, 0, 0, 0, fmt.Errorf("bench: bracket churn needs >=3 procs, got %d", procs)
	}
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cl.Close()
	var (
		hits  int
		el    time.Duration
		cpuT  time.Duration
		stop  atomic.Bool
		flood atomic.Int64
	)
	err = cl.Run(func(p *core.Proc) error {
		upd, err := p.NewSpace("update")
		if err != nil {
			return err
		}
		// ids[0]: the measured hit region (default space, 64 B).
		// ids[1]: the flood region (upd space, 16 KB).
		// ids[2]: the flooder's throttle sentinel (default space, 64 B).
		// All homed at processor 0.
		var ids []core.RegionID
		if p.ID() == 0 {
			ids = []core.RegionID{
				p.GMalloc(p.DefaultSpace(), 64),
				p.GMalloc(upd, churnRegionBytes),
				p.GMalloc(p.DefaultSpace(), 64),
			}
		}
		ids = p.BroadcastIDs(0, ids)
		switch p.ID() {
		case 0:
			r := p.Map(ids[0])
			// Pin the measuring goroutine to its OS thread so the thread
			// CPU clock below reads the hit loop's own consumption.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			p.GlobalBarrier()
			start := time.Now()
			cpu0 := threadCPU()
			n := 0
			for {
				p.StartRead(r)
				p.EndRead(r)
				n++
				if n&255 == 0 && time.Since(start) >= window {
					break
				}
			}
			cpuT = threadCPU() - cpu0
			el = time.Since(start)
			hits = n
			stop.Store(true)
			p.Barrier(upd) // collective: the flooder drains in-flight updates
			p.GlobalBarrier()
		case 1:
			fr := p.Map(ids[1])
			sentinel := p.Map(ids[2])
			// Prime a valid copy so steady-state write brackets are local
			// and EndWrite alone carries the update home.
			p.StartRead(fr)
			p.EndRead(fr)
			p.GlobalBarrier()
			for !stop.Load() {
				for i := 0; i < churnFloodBatch; i++ {
					p.StartWrite(fr)
					fr.Data[0]++
					p.EndWrite(fr)
				}
				flood.Add(churnFloodBatch)
				// Bound the backlog: this round trip through processor
				// 0's pump is served only after the batch above
				// (per-pair FIFO).
				p.StartRead(sentinel)
				p.EndRead(sentinel)
				if !p.DropCopy(sentinel) {
					return fmt.Errorf("bench: bracket churn: sentinel copy not droppable")
				}
			}
			p.Barrier(upd)
			p.GlobalBarrier()
		default:
			// Register as a sharer of the flood region, then park. The
			// application thread spends the window blocked in the
			// barrier; only the pump works, applying the home's pushes.
			fr := p.Map(ids[1])
			p.StartRead(fr)
			p.EndRead(fr)
			p.GlobalBarrier()
			p.Barrier(upd)
			p.GlobalBarrier()
		}
		return nil
	})
	return hits, el, cpuT, flood.Load(), err
}

// rusageThread is Linux's RUSAGE_THREAD: resource usage of the calling
// thread only (the syscall package exports just RUSAGE_SELF/CHILDREN).
const rusageThread = 1

// threadCPU returns the calling thread's consumed CPU time (user +
// system). The caller must be pinned with runtime.LockOSThread for the
// reading to mean anything. Falls back to zero (disabling CPU
// accounting) if the platform refuses RUSAGE_THREAD.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// bracketMiss measures ops read-bracket pairs that each pay a full home
// round trip: the remote processor drops its clean copy after every
// section, so the next StartRead fetches again.
func bracketMiss(ops int) (time.Duration, error) {
	cl, err := core.NewCluster(core.Options{Procs: 2})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var el time.Duration
	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 64)
		}
		id = p.BroadcastID(0, id)
		if p.ID() == 0 {
			p.GlobalBarrier() // peers mapped
			p.GlobalBarrier() // measurement done
			return nil
		}
		r := p.Map(id)
		p.GlobalBarrier()
		start := time.Now()
		for i := 0; i < ops; i++ {
			p.StartRead(r)
			p.EndRead(r)
			if !p.DropCopy(r) {
				return fmt.Errorf("bench: bracket miss: copy not droppable")
			}
		}
		el = time.Since(start)
		p.GlobalBarrier()
		return nil
	})
	return el, err
}

// bracketReps is how many times each fixed-work bracket measurement
// runs; the best run is reported. The fixed-time
// hit/churn measurement runs churnReps times and reports the median.
const (
	bracketReps = 3
	churnReps   = 5
)

// MeasureBracket runs the standard bracket measurement suite at the
// host's native GOMAXPROCS and returns the per-benchmark best of three
// runs.
//
// The cluster is emulated in-process, so each processor's application
// thread and pump are plain goroutines sharing whatever hardware
// contexts the host offers. That is deliberately left alone: on a
// multicore host a locked bracket pays real cache-line and lock
// contention against the pump, and on a single-context host every park
// inside a locked bracket surrenders the processor to a pump with a
// standing backlog until the scheduler circles back. Both are costs the
// lock-free fast path exists to remove; pinning GOMAXPROCS to some
// other value would hide one of them.
func MeasureBracket(procs, hitOps, missOps int) ([]BracketResult, error) {
	mk := func(name string, nProcs, ops int, el time.Duration, churn int64) BracketResult {
		return BracketResult{
			Name: name, Procs: nProcs, Ops: ops,
			Seconds:   el.Seconds(),
			OpsPerSec: float64(ops) / el.Seconds(),
			NsPerOp:   float64(el.Nanoseconds()) / float64(ops),
			ChurnOps:  churn,
		}
	}
	var out []BracketResult

	var best time.Duration
	for i := 0; i < bracketReps; i++ {
		el, err := bracketHitSolo(hitOps)
		if err != nil {
			return nil, fmt.Errorf("hit/solo: %w", err)
		}
		if best == 0 || el < best {
			best = el
		}
	}
	out = append(out, mk("hit/solo", 1, hitOps, best, 0))

	// hit/churn fixes the churn window in time and measures the hit rate
	// the application thread sustains inside it. Unlike the fixed-work
	// benchmarks, where the best run is the least-disturbed one, here the
	// interference is the point and a "best" pick would just reward the
	// repetition whose scheduling happened to starve the flood — so the
	// median-rate repetition of churnReps is reported instead.
	type churnRep struct {
		hits     int
		el, cpu  time.Duration
		floodOps int64
	}
	reps := make([]churnRep, 0, churnReps)
	for i := 0; i < churnReps; i++ {
		h, el, cpu, fl, err := bracketHitChurn(procs, churnWindow)
		if err != nil {
			return nil, fmt.Errorf("hit/churn: %w", err)
		}
		reps = append(reps, churnRep{h, el, cpu, fl})
	}
	sort.Slice(reps, func(i, j int) bool {
		return float64(reps[i].hits)/reps[i].el.Seconds() < float64(reps[j].hits)/reps[j].el.Seconds()
	})
	med := reps[len(reps)/2]
	churn := mk("hit/churn", procs, med.hits, med.el, med.floodOps)
	churn.AppCPUSeconds = med.cpu.Seconds()
	out = append(out, churn)

	// A miss is a full home round trip: two scheduler handoffs per op
	// when the host has fewer hardware contexts than goroutines. Each
	// cluster settles into a fast or slow handoff pattern for its whole
	// run, so the best of churnReps freshly created clusters estimates
	// the protocol's round-trip cost rather than scheduling luck.
	best = 0
	for i := 0; i < churnReps; i++ {
		el, err := bracketMiss(missOps)
		if err != nil {
			return nil, fmt.Errorf("miss: %w", err)
		}
		if best == 0 || el < best {
			best = el
		}
	}
	out = append(out, mk("miss", 2, missOps, best, 0))
	return out, nil
}

// WriteBracketReport runs MeasureBracket and writes the JSON document.
// baseline, when non-nil, is embedded for before/after comparison.
func WriteBracketReport(w io.Writer, procs, hitOps, missOps int, baseline []BracketResult) (BracketReport, error) {
	res, err := MeasureBracket(procs, hitOps, missOps)
	if err != nil {
		return BracketReport{}, err
	}
	rep := BracketReport{
		Generated:  "acebench -exp bracket",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Results:    res,
		Baseline:   baseline,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return rep, enc.Encode(rep)
}

// FormatBracket renders bracket results (and an optional baseline) as a
// table with a speedup column.
func FormatBracket(res, baseline []BracketResult) string {
	base := map[string]BracketResult{}
	for _, b := range baseline {
		base[b.Name] = b
	}
	var out string
	out += fmt.Sprintf("%-12s %6s %10s %14s %12s %12s %12s %8s\n", "benchmark", "procs", "ops", "ops/sec", "ns/op", "cpu ns/op", "churn ops", "speedup")
	for _, r := range res {
		sp := "-"
		if b, ok := base[r.Name]; ok && b.OpsPerSec > 0 {
			sp = fmt.Sprintf("%.2fx", r.OpsPerSec/b.OpsPerSec)
		}
		cpu := "-"
		if r.AppCPUSeconds > 0 {
			cpu = fmt.Sprintf("%.1f", r.AppCPUSeconds*1e9/float64(r.Ops))
		}
		out += fmt.Sprintf("%-12s %6d %10d %14.0f %12.1f %12s %12d %8s\n", r.Name, r.Procs, r.Ops, r.OpsPerSec, r.NsPerOp, cpu, r.ChurnOps, sp)
	}
	return out
}
