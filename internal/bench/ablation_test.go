package bench

import (
	"testing"
	"time"
)

func TestURCSweepShape(t *testing.T) {
	msgs, err := URCSweep(4, []int{4, 64, 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("messages by URC capacity: %v", msgs)
	// Larger caches can only reduce re-fetch traffic.
	if msgs[4] < msgs[64] || msgs[64] < msgs[1024] {
		t.Fatalf("messages not monotone in capacity: %v", msgs)
	}
	if msgs[4] == msgs[1024] {
		t.Fatalf("tiny cache shows no eviction effect: %v", msgs)
	}
}

func TestGranularitySweepShape(t *testing.T) {
	pts, err := GranularitySweep(4, 1024, []int{1, 32, 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("by region size: %+v", pts)
	// Same data volume, bigger regions, fewer messages (Section 2.3's
	// bulk-transfer argument).
	for i := 1; i < len(pts); i++ {
		if pts[i].Msgs >= pts[i-1].Msgs {
			t.Fatalf("messages not decreasing with region size: %+v", pts)
		}
	}
	if pts[0].Msgs < 10*pts[len(pts)-1].Msgs {
		t.Fatalf("bulk transfer effect too small: %+v", pts)
	}
}

func TestLatencySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("latency injection sleeps")
	}
	pts, err := LatencySweep(4, []time.Duration{0, 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("by injected latency: %+v", pts)
	// At high injected latency, the static update protocol's advantage
	// must be larger than at zero latency (the paper's premise: update
	// protocols remove synchronous round trips).
	if pts[1].Speedup <= pts[0].Speedup {
		t.Fatalf("speedup did not grow with latency: %+v", pts)
	}
}
