package apputil

import (
	"math/rand"
	"sync"
)

// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register. Seeding fills word i with three consecutive values
// of the Lehmer generator x → 48271·x mod 2³¹−1 (at positions 21+3i,
// 22+3i and 23+3i from the normalised seed) XORed with a fixed table,
// and draw k is vec[feed] + vec[tap] with feed = 333−k and tap = 606−k.
// The first 273 draws read only words seeding wrote, so each of them is
// a closed-form function of the seed: two register words, each three
// Lehmer values stepped back by one multiply per draw.
const (
	rngLen   = 607                 // register length
	rngTap   = 273                 // lag; also the number of closed-form draws
	feed0    = rngLen - rngTap - 1 // 333: the first draw's feed index
	lcgMod   = 1<<31 - 1           // the Lehmer modulus, a prime
	lcgMul   = 48271               // the Lehmer multiplier
	lcgZero  = 89482311            // math/rand's stand-in for a zero seed
	rngMask  = 1<<63 - 1
	warmLCG  = 20 // Lehmer steps seeding discards before word 0
	wordLCGs = 3  // Lehmer values per register word
)

// rngTables is what every lazy source shares: math/rand's seeding table
// and the Lehmer powers that place a seed's lanes.
type rngTables struct {
	cooked [rngLen]uint64
	// jump holds 48271^n for the Lehmer positions behind word 333
	// (n = 1020, 1021, 1022) and word 606 (n = 1839, 1840, 1841).
	jump [2 * wordLCGs]uint64
	// back is (48271³)⁻¹: it steps a lane from word i to word i−1.
	back uint64
}

var tables = sync.OnceValue(func() *rngTables {
	t := &rngTables{cooked: deriveCooked(1)}
	for j := 0; j < wordLCGs; j++ {
		t.jump[j] = powMod(lcgMul, warmLCG+1+wordLCGs*feed0+j)
		t.jump[wordLCGs+j] = powMod(lcgMul, warmLCG+1+wordLCGs*(rngLen-1)+j)
	}
	t.back = powMod(powMod(lcgMul, wordLCGs), lcgMod-2)
	return t
})

// deriveCooked recovers math/rand's unexported seeding table from the
// public API: it runs the register backwards from the first 607 draws
// of rand.NewSource(seed), which gives the register as seeded, then
// XORs out the seed's Lehmer words. Any seed yields the same table.
func deriveCooked(seed int64) [rngLen]uint64 {
	src := rand.NewSource(seed).(rand.Source64)
	var o, vec [rngLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	// From draw 273 on, the tap reads the word draw k−273 wrote, and the
	// feed (333−k mod 607) is still as seeded.
	for k := rngTap; k < rngLen; k++ {
		vec[(feed0-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	// Before it, the tap (606−k) is a word the loop above recovered.
	for k := 0; k < rngTap; k++ {
		vec[feed0-k] = o[k] - vec[rngLen-1-k]
	}
	x := lcgSeed(seed)
	for i := 0; i < warmLCG; i++ {
		x = x * lcgMul % lcgMod
	}
	for i := range vec {
		var w [wordLCGs]uint64
		for j := range w {
			x = x * lcgMul % lcgMod
			w[j] = x
		}
		vec[i] ^= lcgWord(w[:])
	}
	return vec
}

// lcgSeed normalises a seed the way math/rand's Seed does.
func lcgSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZero
	}
	return uint64(seed)
}

// lcgWord packs three Lehmer values into a register word's seed part.
func lcgWord(w []uint64) uint64 { return w[0]<<40 ^ w[1]<<20 ^ w[2] }

func powMod(b uint64, n int) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}

// lazySource yields exactly the stream of rand.NewSource(seed) without
// seeding a register: draw k < 273 is computed from the lanes, and from
// draw 273 on a math/rand source, seeded and advanced past 273 draws
// only then, takes over.
type lazySource struct {
	t    *rngTables
	seed int64
	k    int // draws made
	// lcg holds the Lehmer values behind word 333−k (0–2) and word
	// 606−k (3–5).
	lcg  [2 * wordLCGs]uint64
	rest rand.Source64
}

func (s *lazySource) Seed(seed int64) {
	x := lcgSeed(seed)
	s.seed, s.k, s.rest = seed, 0, nil
	for j, p := range s.t.jump {
		s.lcg[j] = x * p % lcgMod
	}
}

func (s *lazySource) Uint64() uint64 {
	if s.k == rngTap {
		if s.rest == nil {
			s.rest = rand.NewSource(s.seed).(rand.Source64)
			for i := 0; i < rngTap; i++ {
				s.rest.Uint64()
			}
		}
		return s.rest.Uint64()
	}
	i := feed0 - s.k
	v := (lcgWord(s.lcg[:wordLCGs]) ^ s.t.cooked[i]) + (lcgWord(s.lcg[wordLCGs:]) ^ s.t.cooked[i+rngTap])
	for j := range s.lcg {
		s.lcg[j] = s.lcg[j] * s.t.back % lcgMod
	}
	s.k++
	return v
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// RNG returns a deterministic random source for the given seed and stream
// id, so every processor derives identical graph structure without
// communication. Its numbers are exactly those of
// rand.New(rand.NewSource(seed*1_000_003 + stream)), but a stream of at
// most 273 draws never fills math/rand's 4.8 KB register.
func RNG(seed int64, stream int64) *rand.Rand {
	s := &lazySource{t: tables()}
	s.Seed(seed*1_000_003 + stream)
	return rand.New(s)
}
