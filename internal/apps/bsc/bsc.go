// Package bsc implements a Blocked Sparse Cholesky benchmark in the style
// of Rothberg's supernodal factorization: a banded symmetric positive
// definite matrix is factored by block columns, each block column a single
// large shared region (the paper's coarse-grained benchmark).
//
// The paper's input (Tk15.O from the sparse-matrix collection) is not
// redistributable; we substitute a deterministic banded SPD matrix, which
// preserves the behaviour that matters to the runtime: block columns are
// written only by the processor that created them, read in bulk by the
// owners of dependent columns, and the unit of transfer is the whole
// (large) region — so bulk transfer dominates and write-side protocol
// optimizations help only marginally (Section 5.2).
//
// The application-specific protocol is "homewrite": writes are home-local
// and free of coherence actions; readers pull whole columns on demand.
package bsc

import (
	"fmt"
	"math"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// Config parameterizes the benchmark.
type Config struct {
	// Blocks is the number of block columns; BlockSize their width. The
	// matrix is n×n with n = Blocks*BlockSize.
	Blocks    int
	BlockSize int
	// Bandwidth is the half-bandwidth in blocks: column k updates
	// columns k+1..k+Bandwidth (the sparse structure).
	Bandwidth int
	Seed      int64

	// Proto, if non-empty, is the protocol for the matrix space
	// ("homewrite"). Empty runs on the default space.
	Proto string
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Blocks: 12, BlockSize: 16, Bandwidth: 4, Seed: 3}
}

// Run executes the factorization on rt. The checksum is the sum of the
// factor's entries.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	res := apputil.Result{Name: "bsc", Runtime: rt.Name(), Protocols: protoLabel(cfg.Proto)}
	if cfg.Blocks < 2 || cfg.BlockSize < 1 || cfg.Bandwidth < 1 {
		return res, fmt.Errorf("bsc: bad config %+v", cfg)
	}
	srt, hasSpaces := rt.(rtiface.SpaceRT)
	useSpace := cfg.Proto != "" && hasSpaces
	if cfg.Proto != "" && !hasSpaces {
		return res, fmt.Errorf("bsc: runtime %s has no spaces for protocol %q", rt.Name(), cfg.Proto)
	}
	var space rtiface.SpaceID
	if useSpace {
		var err error
		if space, err = srt.NewSpace(cfg.Proto); err != nil {
			return res, err
		}
	}

	B, bs := cfg.Blocks, cfg.BlockSize
	n := B * bs

	// Column k is owned by processor k mod P (round robin for balance as
	// the active window shrinks) and stored as one region holding rows
	// k*bs..n-1 of the block column (the lower-triangular part).
	owner := func(k int) int { return k % rt.Procs() }
	colRows := func(k int) int { return n - k*bs }

	ids := make([]core.RegionID, B)
	var myIDs []core.RegionID
	for k := 0; k < B; k++ {
		if owner(k) == rt.ID() {
			size := colRows(k) * bs * 8
			var id core.RegionID
			if useSpace {
				id = srt.MallocIn(space, size)
			} else {
				id = rt.Malloc(size)
			}
			myIDs = append(myIDs, id)
		}
	}
	// Distribute ids: each owner broadcasts its column ids in turn.
	for p := 0; p < rt.Procs(); p++ {
		var cnt int
		for k := 0; k < B; k++ {
			if owner(k) == p {
				cnt++
			}
		}
		var got []core.RegionID
		if p == rt.ID() {
			got = rt.BroadcastIDs(p, myIDs)
		} else {
			got = rt.BroadcastIDs(p, make([]core.RegionID, cnt))
		}
		i := 0
		for k := 0; k < B; k++ {
			if owner(k) == p {
				ids[k] = got[i]
				i++
			}
		}
	}
	// Initialize owned columns from the banded SPD matrix. Regions are
	// mapped around each use.
	for k := 0; k < B; k++ {
		if owner(k) != rt.ID() {
			continue
		}
		h := rt.Map(ids[k])
		rt.StartWrite(h)
		d := h.Data()
		rows := colRows(k)
		for c := 0; c < bs; c++ {
			col := k*bs + c
			for r := 0; r < rows; r++ {
				row := k*bs + r
				d.SetFloat64(c*rows+r, matA(row, col, n, cfg))
			}
		}
		rt.EndWrite(h)
		rt.Unmap(h)
	}
	barrier := func() {
		if useSpace {
			srt.BarrierSpace(space)
		} else {
			rt.Barrier()
		}
	}
	barrier()

	start := time.Now()
	// Right-looking blocked factorization.
	colBuf := make([]float64, n*bs)
	for k := 0; k < B; k++ {
		if owner(k) == rt.ID() {
			h := rt.Map(ids[k])
			factorColumn(rt, h, colRows(k), bs)
			rt.Unmap(h)
		}
		barrier()
		// Owners of dependent columns read column k in bulk and update.
		last := min(B-1, k+cfg.Bandwidth)
		needsIt := false
		for j := k + 1; j <= last; j++ {
			if owner(j) == rt.ID() {
				needsIt = true
			}
		}
		if needsIt {
			rows := colRows(k)
			h := rt.Map(ids[k])
			rt.StartRead(h)
			d := h.Data()
			for i := 0; i < rows*bs; i++ {
				colBuf[i] = d.Float64(i)
			}
			rt.EndRead(h)
			rt.Unmap(h)
			for j := k + 1; j <= last; j++ {
				if owner(j) == rt.ID() {
					hj := rt.Map(ids[j])
					updateColumn(rt, hj, colBuf, k, j, bs, n)
					rt.Unmap(hj)
				}
			}
		}
		barrier()
	}
	res.Iters = 1
	res.Total = time.Duration(rt.AllReduceInt64(core.OpMax, int64(time.Since(start))))
	res.TimePerIter = res.Total

	// Checksum over owned factor entries.
	sum := 0.0
	for k := 0; k < B; k++ {
		if owner(k) != rt.ID() {
			continue
		}
		h := rt.Map(ids[k])
		rt.StartRead(h)
		d := h.Data()
		for i := 0; i < colRows(k)*bs; i++ {
			sum += d.Float64(i)
		}
		rt.EndRead(h)
		rt.Unmap(h)
	}
	res.Checksum = rt.AllReduceFloat64(core.OpSum, sum)
	rt.Barrier()
	return res, nil
}

// factorColumn factors the diagonal block in place (dense Cholesky) and
// applies the triangular solve to the subdiagonal rows.
func factorColumn(rt rtiface.RT, h rtiface.Handle, rows, bs int) {
	rt.StartWrite(h)
	d := h.Data()
	at := func(r, c int) float64 { return d.Float64(c*rows + r) }
	set := func(r, c int, v float64) { d.SetFloat64(c*rows+r, v) }
	// Cholesky of the bs×bs diagonal block.
	for c := 0; c < bs; c++ {
		sum := at(c, c)
		for m := 0; m < c; m++ {
			sum -= at(c, m) * at(c, m)
		}
		if sum <= 0 {
			panic(fmt.Sprintf("bsc: matrix not positive definite at %d (%g)", c, sum))
		}
		diag := math.Sqrt(sum)
		set(c, c, diag)
		for r := c + 1; r < rows; r++ {
			sum := at(r, c)
			for m := 0; m < c; m++ {
				sum -= at(r, m) * at(c, m)
			}
			set(r, c, sum/diag)
		}
		// Zero the strictly upper part of the diagonal block for a clean
		// factor.
		for r := 0; r < c; r++ {
			set(r, c, 0)
		}
	}
	rt.EndWrite(h)
}

// updateColumn applies the rank-bs update from factored column k to column
// j: A_j -= L_jk * L_(rows of j),k^T.
func updateColumn(rt rtiface.RT, h rtiface.Handle, colK []float64, k, j, bs, n int) {
	rowsK := n - k*bs
	rowsJ := n - j*bs
	kAt := func(r, c int) float64 { return colK[c*rowsK+r] } // r relative to k*bs
	rt.StartWrite(h)
	d := h.Data()
	// For column j, global rows j*bs..n-1; the update uses L(j-block
	// rows, k) and L(target rows, k).
	off := (j - k) * bs // row offset of j's block within column k
	for c := 0; c < bs; c++ {
		for r := 0; r < rowsJ; r++ {
			acc := d.Float64(c*rowsJ + r)
			for m := 0; m < bs; m++ {
				acc -= kAt(off+r, m) * kAt(off+c, m)
			}
			d.SetFloat64(c*rowsJ+r, acc)
		}
	}
	rt.EndWrite(h)
}

// matA defines the banded SPD input matrix.
func matA(row, col, n int, cfg Config) float64 {
	if row == col {
		return float64(n) + 10
	}
	band := cfg.Bandwidth * cfg.BlockSize
	dd := row - col
	if dd < 0 {
		dd = -dd
	}
	if dd > band {
		return 0
	}
	// A deterministic, symmetric off-diagonal pattern, small enough to
	// keep the matrix diagonally dominant (hence SPD).
	return math.Sin(float64(row*31+col*17)) * 0.5
}

// SequentialFactor computes the same factorization sequentially (dense,
// lower triangle) for verification, returning the sum of factor entries.
func SequentialFactor(cfg Config) float64 {
	n := cfg.Blocks * cfg.BlockSize
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			a[i][j] = matA(i, j, n, cfg)
		}
	}
	for c := 0; c < n; c++ {
		sum := a[c][c]
		for m := 0; m < c; m++ {
			sum -= a[c][m] * a[c][m]
		}
		diag := math.Sqrt(sum)
		a[c][c] = diag
		for r := c + 1; r < n; r++ {
			s := a[r][c]
			for m := 0; m < c; m++ {
				s -= a[r][m] * a[c][m]
			}
			a[r][c] = s / diag
		}
	}
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			total += a[i][j]
		}
	}
	return total
}

func protoLabel(p string) string {
	if p == "" {
		return "sc"
	}
	return p
}
