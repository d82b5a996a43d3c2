package amnet

import (
	"fmt"
	"testing"
)

// BenchmarkPoolParallel measures Alloc/Recycle from concurrent
// goroutines — a cluster's access pattern, where every node's pump (or a
// sender dispatching its handlers directly) recycles delivered payloads
// while application threads allocate send buffers. The pool is a per-size-class sync.Pool, which keeps
// per-P caches, so this should scale rather than serialize on a lock;
// the benchmark exists to catch a regression toward one (run with
// -cpu 1,4 to see the contention curve).
func BenchmarkPoolParallel(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					buf := Alloc(size)
					buf[0] = 1
					Recycle(buf)
				}
			})
		})
	}
}
