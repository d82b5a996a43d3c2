package amnet

import "sync"

// Size-class buffer pool for the fabric fast path. Frame buffers on the
// TCP transport, received payloads, and the runtime's payload clones all
// come from here, so a steady-state message exchange recycles a handful
// of buffers instead of allocating per message.
//
// Ownership contract: Alloc returns a buffer owned by the caller.
// Recycle returns it to the pool; after Recycle the buffer must not be
// touched. Recycle accepts any byte slice — buffers that did not come
// from Alloc (wrong capacity class) are simply left to the garbage
// collector, so callers may recycle delivered payloads without knowing
// their provenance. Recycling a buffer while another goroutine still
// reads it is a use-after-free bug; the fabric's rule is that a
// delivered Msg.Payload has exactly one owner (see Handler).

// poolClasses are the buffer capacities kept, smallest first. The
// smallest class covers a zero-payload frame (frameHeader ≈ 54 bytes);
// the largest bounds pool-retained memory — larger buffers fall back to
// the allocator.
var poolClasses = [...]int{64, 256, 1024, 4096, 16384, 65536}

// bufPool is one size class. Buffers travel as *[]byte so neither Get
// nor Put boxes a slice header; headerPool recirculates the header
// allocations themselves, making the steady state allocation-free.
var (
	bufPools   [len(poolClasses)]sync.Pool
	headerPool = sync.Pool{New: func() any { return new([]byte) }}
)

func init() {
	for i, size := range poolClasses {
		size := size
		bufPools[i].New = func() any {
			b := make([]byte, size)
			return &b
		}
	}
}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class.
func classFor(n int) int {
	for i, size := range poolClasses {
		if n <= size {
			return i
		}
	}
	return -1
}

// Alloc returns a buffer of length n, from the pool when a size class
// covers n. Alloc(0) returns nil.
func Alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	i := classFor(n)
	if i < 0 {
		return make([]byte, n)
	}
	h := bufPools[i].Get().(*[]byte)
	b := (*h)[:n]
	*h = nil
	headerPool.Put(h)
	return b
}

// Recycle returns b to its size-class pool. Buffers whose capacity is
// not exactly a pool class (including nil and buffers larger than the
// biggest class) are ignored and left to the garbage collector.
func Recycle(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	i := classFor(c)
	if i < 0 || poolClasses[i] != c {
		return
	}
	h := headerPool.Get().(*[]byte)
	*h = b[:c]
	bufPools[i].Put(h)
}
