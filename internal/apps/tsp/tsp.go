// Package tsp implements the branch-and-bound Traveling Salesman benchmark
// from the CRL 1.0 distribution. Work is distributed through a shared job
// counter: each job is a fixed two-city prefix whose subtree a processor
// explores with depth-first search, pruned against the shared best bound.
//
// The application-specific optimization (Section 5.2) is "better
// management of accesses to a counter that is used to assign jobs": the
// counter moves into a space governed by the "atomic" protocol, turning
// each job grab into a single home round trip instead of an exclusive
// ownership migration.
package tsp

import (
	"fmt"
	"math"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// Config parameterizes the benchmark. The paper used 12 cities.
type Config struct {
	Cities int
	Seed   int64

	// CounterProto, if non-empty, places the job counter in a space with
	// the named protocol ("atomic"). Empty keeps everything on the
	// default space.
	CounterProto string
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Cities: 10, Seed: 7}
}

// Run executes TSP on rt and returns the optimal tour length as the
// checksum.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	res := apputil.Result{Name: "tsp", Runtime: rt.Name(), Protocols: "sc"}
	if cfg.Cities < 4 || cfg.Cities > 16 {
		return res, fmt.Errorf("tsp: bad city count %d", cfg.Cities)
	}
	n := cfg.Cities
	dist := distances(cfg)

	// Shared state: the job counter and the best bound.
	srt, hasSpaces := rt.(rtiface.SpaceRT)
	useCounterSpace := cfg.CounterProto != "" && hasSpaces
	if cfg.CounterProto != "" && !hasSpaces {
		return res, fmt.Errorf("tsp: runtime %s has no spaces for protocol %q", rt.Name(), cfg.CounterProto)
	}
	var counterSpace rtiface.SpaceID
	if useCounterSpace {
		var err error
		if counterSpace, err = srt.NewSpace(cfg.CounterProto); err != nil {
			return res, err
		}
		res.Protocols = "counter=" + cfg.CounterProto
	}

	var counterID, bestID core.RegionID
	if rt.ID() == 0 {
		if useCounterSpace {
			counterID = srt.MallocIn(counterSpace, 8)
		} else {
			counterID = rt.Malloc(8)
		}
		bestID = rt.Malloc(8)
		b := rt.Map(bestID)
		rt.StartWrite(b)
		b.Data().SetInt64(0, math.MaxInt64/4)
		rt.EndWrite(b)
		rt.Unmap(b)
	}
	counterID = rt.BroadcastID(0, counterID)
	bestID = rt.BroadcastID(0, bestID)
	rt.Barrier()

	// Jobs: fixed prefixes (0, a, b) with distinct a, b ∈ 1..n-1.
	numJobs := (n - 1) * (n - 2)
	start := time.Now()
	s := solver{rt: rt, n: n, dist: dist, bestID: bestID}
	for {
		// Grab the next job: an atomic fetch-and-increment through an
		// exclusive write section (or the atomic protocol's home-side
		// RMW when configured). Regions are mapped around each use.
		counter := rt.Map(counterID)
		rt.StartWrite(counter)
		job := counter.Data().Int64(0)
		counter.Data().SetInt64(0, job+1)
		rt.EndWrite(counter)
		rt.Unmap(counter)
		if job >= int64(numJobs) {
			break
		}
		a := int(job)/(n-2) + 1
		b := int(job) % (n - 2)
		second := a
		third := 1 + b
		if third >= second {
			third++
		}
		s.runJob(second, third)
	}
	rt.Barrier()

	best := rt.Map(bestID)
	rt.StartRead(best)
	final := best.Data().Int64(0)
	rt.EndRead(best)
	rt.Unmap(best)
	res.Checksum = float64(final)
	res.Iters = 1
	res.Total = time.Duration(rt.AllReduceInt64(core.OpMax, int64(time.Since(start))))
	res.TimePerIter = res.Total
	rt.Barrier()
	return res, nil
}

// solver carries the per-processor search state.
type solver struct {
	rt        rtiface.RT
	n         int
	dist      [][]int64
	bestID    core.RegionID
	localBest int64
	visited   uint32
	path      []int
}

// runJob explores the subtree rooted at the prefix 0 → second → third.
func (s *solver) runJob(second, third int) {
	// Refresh the bound at job start.
	best := s.rt.Map(s.bestID)
	s.rt.StartRead(best)
	s.localBest = best.Data().Int64(0)
	s.rt.EndRead(best)
	s.rt.Unmap(best)

	s.visited = 1<<0 | 1<<second | 1<<third
	s.path = s.path[:0]
	s.path = append(s.path, 0, second, third)
	s.dfs(third, s.dist[0][second]+s.dist[second][third])
}

// dfs extends the current partial tour from city `at` with accumulated
// length `len`.
func (s *solver) dfs(at int, length int64) {
	if length >= s.localBest {
		return
	}
	if len(s.path) == s.n {
		total := length + s.dist[at][0]
		if total < s.localBest {
			s.localBest = total
			s.publish(total)
		}
		return
	}
	for next := 1; next < s.n; next++ {
		if s.visited&(1<<next) != 0 {
			continue
		}
		s.visited |= 1 << next
		s.path = append(s.path, next)
		s.dfs(next, length+s.dist[at][next])
		s.path = s.path[:len(s.path)-1]
		s.visited &^= 1 << next
	}
}

// publish installs an improved bound in the shared best region (an atomic
// min through an exclusive write section).
func (s *solver) publish(total int64) {
	best := s.rt.Map(s.bestID)
	s.rt.StartWrite(best)
	if cur := best.Data().Int64(0); total < cur {
		best.Data().SetInt64(0, total)
	} else {
		s.localBest = cur
	}
	s.rt.EndWrite(best)
	s.rt.Unmap(best)
}

// distances builds the deterministic symmetric distance matrix.
func distances(cfg Config) [][]int64 {
	rng := apputil.RNG(cfg.Seed, 0)
	n := cfg.Cities
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64(rng.Intn(99) + 1)
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// SequentialBest solves the instance on one processor, for verification.
func SequentialBest(cfg Config) int64 {
	dist := distances(cfg)
	n := cfg.Cities
	best := int64(math.MaxInt64 / 4)
	var dfs func(at int, visited uint32, count int, length int64)
	dfs = func(at int, visited uint32, count int, length int64) {
		if length >= best {
			return
		}
		if count == n {
			if t := length + dist[at][0]; t < best {
				best = t
			}
			return
		}
		for next := 1; next < n; next++ {
			if visited&(1<<next) != 0 {
				continue
			}
			dfs(next, visited|1<<next, count+1, length+dist[at][next])
		}
	}
	dfs(0, 1, 1, 0)
	return best
}
