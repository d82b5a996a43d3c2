package tcpnet

import (
	"sync/atomic"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
)

// BenchmarkLargeFrameThroughput streams 16 KB payloads over loopback:
// the large-frame regime, where every batch overflows the writer's
// 64 KiB buffer and bufio hands the kernel most bytes mid-Write. The
// small-frame regime is covered by the fabric benchmarks' 16 B
// messages.
func BenchmarkLargeFrameThroughput(b *testing.B) {
	nw, err := New(Loopback(2))
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	const payload = 16 << 10
	var seen atomic.Uint64
	done := make(chan struct{})
	want := uint64(b.N)
	eps[1].Register(9, func(m amnet.Msg) {
		amnet.Recycle(m.Payload)
		if seen.Add(1) == want {
			close(done)
		}
	})
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := amnet.Alloc(payload)
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 9, Payload: buf})
	}
	<-done
}
