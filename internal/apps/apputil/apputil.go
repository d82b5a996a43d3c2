// Package apputil holds helpers shared by the benchmark applications:
// block partitioning, deterministic random sources, and the common result
// record the experiment harness consumes.
package apputil

import "time"

// Result is what every benchmark returns from its Run function.
type Result struct {
	// Name is the benchmark name ("em3d", "tsp", ...).
	Name string
	// Runtime is "ace" or "crl".
	Runtime string
	// Protocols describes the protocol configuration ("sc",
	// "update/update", ...), for reporting.
	Protocols string
	// Iters is the number of timed iterations (first iteration
	// discarded, per the paper's methodology).
	Iters int
	// TimePerIter is the mean time per timed iteration, maximized across
	// processors (the slowest processor defines progress).
	TimePerIter time.Duration
	// Total is the total timed duration.
	Total time.Duration
	// Checksum is an application-defined correctness checksum, identical
	// across runtimes and protocols for the same configuration.
	Checksum float64
	// Msgs and Bytes are total network traffic, filled in by the
	// harness.
	Msgs, Bytes uint64
}

// Block computes the half-open range [Lo, Hi) of items owned by processor
// p out of procs, for n items, using contiguous blocks.
func Block(n, procs, p int) (lo, hi int) {
	base := n / procs
	rem := n % procs
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// Owner returns the processor owning item i under Block partitioning.
func Owner(n, procs, i int) int {
	for p := 0; p < procs; p++ {
		lo, hi := Block(n, procs, p)
		if i >= lo && i < hi {
			return p
		}
	}
	return procs - 1
}

// Timer measures per-iteration times, discarding the first iteration
// (cold start), as in Section 5.1.
type Timer struct {
	start    time.Time
	times    []time.Duration
	began    bool
	iterOpen bool
}

// StartIter marks the beginning of an iteration.
func (t *Timer) StartIter() {
	t.start = time.Now()
	t.iterOpen = true
}

// EndIter marks the end of an iteration.
func (t *Timer) EndIter() {
	if !t.iterOpen {
		return
	}
	t.iterOpen = false
	t.times = append(t.times, time.Since(t.start))
}

// Timed returns the number of timed iterations (all but the first) and
// their total duration.
func (t *Timer) Timed() (int, time.Duration) {
	if len(t.times) <= 1 {
		if len(t.times) == 1 {
			return 1, t.times[0]
		}
		return 0, 0
	}
	var tot time.Duration
	for _, d := range t.times[1:] {
		tot += d
	}
	return len(t.times) - 1, tot
}
