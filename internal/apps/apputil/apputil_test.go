package apputil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBlockCoversAllItems(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16%1000) + 1
		procs := int(p8%16) + 1
		covered := 0
		prevHi := 0
		for p := 0; p < procs; p++ {
			lo, hi := Block(n, procs, p)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBalance(t *testing.T) {
	// No processor gets more than one extra item.
	for _, c := range []struct{ n, procs int }{{10, 3}, {7, 7}, {5, 8}, {100, 9}} {
		minSz, maxSz := 1<<30, 0
		for p := 0; p < c.procs; p++ {
			lo, hi := Block(c.n, c.procs, p)
			sz := hi - lo
			minSz = min(minSz, sz)
			maxSz = max(maxSz, sz)
		}
		if maxSz-minSz > 1 {
			t.Errorf("Block(%d,%d): sizes range %d..%d", c.n, c.procs, minSz, maxSz)
		}
	}
}

func TestOwnerConsistentWithBlock(t *testing.T) {
	f := func(n16 uint16, p8 uint8, i16 uint16) bool {
		n := int(n16%500) + 1
		procs := int(p8%8) + 1
		i := int(i16) % n
		owner := Owner(n, procs, i)
		lo, hi := Block(n, procs, owner)
		return i >= lo && i < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := RNG(42, 7)
	b := RNG(42, 7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed/stream must produce identical sequences")
		}
	}
	c := RNG(42, 8)
	same := true
	d := RNG(42, 7)
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams should differ")
	}
}

// rngStreams are the (seed, stream) pairs the checks compare against
// math/rand: seed 0 with the raw source seeds that exercise Seed's
// normalisation (0, ±1, 2³¹−1, which reduces to zero, and −2⁴⁰), then
// the pairs the applications draw from — em3d at the benchmark's and
// the tests' inputs, water, barneshut, tsp and the Table 4 kernels.
var rngStreams = [][2]int64{
	{0, 0}, {0, 1}, {0, -1}, {0, 1<<31 - 1}, {0, -1 << 40},
	{1, 0}, {1, 999}, {1, 1999}, {42, 0}, {42, 95}, // em3d
	{5, 0}, {5, 63}, // water, Table 4 water
	{17, 0}, {17, 255}, // barneshut, Table 4 bh
	{7, 0},             // tsp, Table 4 tsp
	{77, 0}, {77, 511}, // Table 4 em3d
}

// TestRNGMatchesMathRand: every stream is math/rand's, draw for draw,
// through each Rand method the applications call and across the
// hand-over at draw 273; a Seed mid-stream restarts it as it restarts
// math/rand's; and the recovered seeding table does not depend on the
// seed it was recovered from.
func TestRNGMatchesMathRand(t *testing.T) {
	t.Run("streams", func(t *testing.T) {
		draws := map[string]func(r *rand.Rand) uint64{
			"Int63":      func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
			"Uint64":     func(r *rand.Rand) uint64 { return r.Uint64() },
			"Intn(100)":  func(r *rand.Rand) uint64 { return uint64(r.Intn(100)) },
			"Intn(1000)": func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
			"Float64":    func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
		}
		for _, st := range rngStreams {
			for name, draw := range draws {
				got, want := RNG(st[0], st[1]), rand.New(rand.NewSource(st[0]*1_000_003+st[1]))
				for i := 0; i < 1000; i++ {
					if g, w := draw(got), draw(want); g != w {
						t.Fatalf("RNG(%d, %d).%s draw %d = %#x, math/rand %#x", st[0], st[1], name, i, g, w)
					}
				}
			}
		}
	})
	t.Run("seed", func(t *testing.T) {
		for _, after := range []int{10, 273, 400} {
			for _, seed := range []int64{0, 1, -5, 1<<31 - 1, 123456789} {
				got := RNG(3, 4)
				for i := 0; i < after; i++ {
					got.Int63()
				}
				got.Seed(seed)
				want := rand.New(rand.NewSource(seed))
				for i := 0; i < 600; i++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("Seed(%d) after %d draws: draw %d = %#x, math/rand %#x", seed, after, i, g, w)
					}
				}
			}
		}
	})
	t.Run("table", func(t *testing.T) {
		one := deriveCooked(1)
		for _, seed := range []int64{2, -7, 1<<31 - 1} {
			if deriveCooked(seed) != one {
				t.Fatalf("table recovered from seed %d differs from seed 1's", seed)
			}
		}
	})
}

// TestRNGAllocs pins a short stream's cost: the Rand and the lazy source
// are the only allocations, so no 4.8 KB register comes back unnoticed.
func TestRNGAllocs(t *testing.T) {
	stream := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		r := RNG(1, stream)
		stream++
		for i := 0; i < 40; i++ {
			r.Int63()
		}
	})
	if allocs > 2 {
		t.Fatalf("RNG plus 40 draws: %v allocs, want at most 2", allocs)
	}
}

// BenchmarkRNG is one em3d node's stream — create it, draw 30 numbers —
// here and from a seeded math/rand source.
func BenchmarkRNG(b *testing.B) {
	for _, c := range []struct {
		name string
		rng  func(seed, stream int64) *rand.Rand
	}{
		{"lazy", RNG},
		{"math-rand", func(seed, stream int64) *rand.Rand {
			return rand.New(rand.NewSource(seed*1_000_003 + stream))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				r := c.rng(1, int64(i))
				for j := 0; j < 30; j++ {
					sink += r.Int63()
				}
			}
			_ = sink
		})
	}
}

func TestTimerDiscardsFirstIteration(t *testing.T) {
	var tm Timer
	for i := 0; i < 4; i++ {
		tm.StartIter()
		time.Sleep(time.Millisecond)
		tm.EndIter()
	}
	n, total := tm.Timed()
	if n != 3 {
		t.Fatalf("timed iterations = %d, want 3", n)
	}
	if total < 2*time.Millisecond {
		t.Fatalf("total %v too small", total)
	}
}

func TestTimerEdgeCases(t *testing.T) {
	var tm Timer
	if n, total := tm.Timed(); n != 0 || total != 0 {
		t.Fatal("empty timer should report zero")
	}
	tm.EndIter() // without StartIter: ignored
	tm.StartIter()
	tm.EndIter()
	if n, _ := tm.Timed(); n != 1 {
		t.Fatalf("single iteration reports %d", n)
	}
}
