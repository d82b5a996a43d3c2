package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilAndDisabledRecorder: the zero-value Recorder and one built from
// a nil config are valid untimed recorders. Before any space is
// registered they count nothing and every entry point is a safe no-op;
// once a space is added they count it without reading the clock.
func TestNilAndDisabledRecorder(t *testing.T) {
	one := OpCounts{OpStartRead: 1}
	for name, r := range map[string]*Recorder{"zero": {}, "nil config": NewRecorder(0, nil)} {
		if tok := r.Begin(); tok != 0 {
			t.Errorf("%s: Begin = %d, want 0", name, tok)
		}
		r.End(OpMap, 0, r.Begin()) // unknown space: must not panic
		r.Fold(0, &one, &one, &one)
		r.SetProtocol(0, "update")
		if m := r.Snapshot(); m.Ops.Total() != 0 || m.Spaces != nil {
			t.Errorf("%s: recorder with no spaces counted %d ops over %d spaces", name, m.Ops.Total(), len(m.Spaces))
		}
		if _, ok := r.SpaceSnapshot(0); ok {
			t.Errorf("%s: SpaceSnapshot of an unregistered space reported ok", name)
		}
		if evs := r.Events(); evs != nil {
			t.Errorf("%s: recorder has %d events", name, len(evs))
		}

		r.AddSpace(0, "sc")
		r.End(OpMap, 0, r.Begin())
		r.Fold(0, &OpCounts{OpMap: 1}, &OpCounts{}, &OpCounts{})
		if got := r.Snapshot().Ops.Get(OpMap); got != 1 {
			t.Errorf("%s: untimed recorder counted %d maps, want 1", name, got)
		}
	}
}

func TestRecorderCountsAndLatency(t *testing.T) {
	r := NewRecorder(3, &Config{Metrics: true})
	r.AddSpace(0, "sc")
	r.AddSpace(1, "update")
	var none OpCounts
	for i := 0; i < 10; i++ {
		r.End(OpStartRead, 0, r.Begin())
		r.Fold(0, &OpCounts{OpStartRead: 1}, &none, &none)
	}
	r.End(OpBarrier, 1, r.Begin())
	r.Fold(1, &OpCounts{OpBarrier: 1}, &none, &none)
	m := r.Snapshot()
	if got := m.Ops.Get(OpStartRead); got != 10 {
		t.Errorf("start_read = %d, want 10", got)
	}
	if got := m.Ops.Total(); got != 11 {
		t.Errorf("total = %d, want 11", got)
	}
	if len(m.Spaces) != 2 {
		t.Fatalf("spaces = %d, want 2", len(m.Spaces))
	}
	if m.Spaces[0].Protocol != "sc" || m.Spaces[1].Protocol != "update" {
		t.Errorf("protocols = %q, %q", m.Spaces[0].Protocol, m.Spaces[1].Protocol)
	}
	if m.Spaces[1].Ops.Get(OpBarrier) != 1 {
		t.Errorf("space 1 barrier = %d", m.Spaces[1].Ops.Get(OpBarrier))
	}
	if h := m.OpLatency[OpStartRead]; h.Count != 10 {
		t.Errorf("latency count = %d, want 10", h.Count)
	}
	// SetProtocol shows up in the next snapshot.
	r.SetProtocol(0, "migratory")
	if got := r.Snapshot().Spaces[0].Protocol; got != "migratory" {
		t.Errorf("protocol after SetProtocol = %q", got)
	}
}

// TestRecorderCountersOnly: an untimed recorder (nil or zero config)
// still counts every folded bracket, fast hit and remote miss exactly —
// the adaptive controller and the public snapshots read these counts —
// but never reads the clock (Begin returns 0) and records no latency or
// events.
func TestRecorderCountersOnly(t *testing.T) {
	for _, cfg := range []*Config{nil, {}} {
		r := NewRecorder(0, cfg)
		r.AddSpace(0, "sc")
		if tok := r.Begin(); tok != 0 {
			t.Errorf("cfg %+v: Begin = %d, want 0", cfg, tok)
		}
		for i := 0; i < 7; i++ {
			r.End(OpStartWrite, 0, r.Begin())
		}
		misses := OpCounts{OpStartWrite: 1, OpStartRead: 1}
		r.Fold(0, &OpCounts{OpStartWrite: 7}, &OpCounts{OpStartWrite: 1}, &misses)
		r.Fold(-1, &OpCounts{OpMap: 1}, &OpCounts{}, &OpCounts{}) // no space: not attributed
		m := r.Snapshot()
		if got := m.Ops.Get(OpStartWrite); got != 7 {
			t.Errorf("cfg %+v: start_write = %d, want 7", cfg, got)
		}
		if got := m.Ops.Total(); got != 7 {
			t.Errorf("cfg %+v: total = %d, want 7", cfg, got)
		}
		if sm := m.Spaces[0]; sm.RemoteWriteMisses != 1 || sm.RemoteReadMisses != 1 {
			t.Errorf("cfg %+v: remote misses read %d write %d, want 1 and 1", cfg, sm.RemoteReadMisses, sm.RemoteWriteMisses)
		}
		if got := m.FastOps.Get(OpStartWrite); got != 1 {
			t.Errorf("cfg %+v: fast start_write = %d, want 1", cfg, got)
		}
		if h := m.OpLatency[OpStartWrite]; h.Count != 0 || h.SumNS != 0 {
			t.Errorf("cfg %+v: untimed recorder recorded latency: count=%d sum=%d", cfg, h.Count, h.SumNS)
		}
		if evs := r.Events(); evs != nil {
			t.Errorf("cfg %+v: untimed recorder kept %d events", cfg, len(evs))
		}
	}
}

// TestRecorderConcurrency hammers brackets and folds from P goroutines
// while a reader snapshots; run under -race this is the data-race check
// the lock-free counters must pass.
func TestRecorderConcurrency(t *testing.T) {
	const procs, perProc = 8, 2000
	r := NewRecorder(0, &Config{Metrics: true, Events: 256})
	r.AddSpace(0, "sc")

	done := make(chan struct{})
	go func() { // concurrent snapshot reader
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
				_ = r.Events()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var none OpCounts
			for i := 0; i < perProc; i++ {
				op := Op(i % int(NumOps))
				r.End(op, 0, r.Begin())
				one := OpCounts{}
				one[op] = 1
				r.Fold(0, &one, &none, &none)
				if i%100 == 0 {
					r.AddSpace(1+i%3, "update") // concurrent space growth
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if got := r.Snapshot().Ops.Total(); got != procs*perProc {
		t.Errorf("total ops = %d, want %d", got, procs*perProc)
	}
}

func TestEventRingWrap(t *testing.T) {
	r := NewRecorder(1, &Config{Events: 4})
	r.AddSpace(0, "sc")
	for i := 0; i < 10; i++ {
		r.End(OpMap, 0, r.Begin())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("events out of order: %d before %d", evs[i].TS, evs[i-1].TS)
		}
	}
	if evs[0].Proc != 1 || evs[0].Op != OpMap || evs[0].Proto != "sc" {
		t.Errorf("event fields: %+v", evs[0])
	}
}

func TestZeroAllocationBrackets(t *testing.T) {
	untimed := NewRecorder(0, nil)
	untimed.AddSpace(0, "sc")
	one := OpCounts{OpStartWrite: 1}
	if n := testing.AllocsPerRun(100, func() {
		untimed.End(OpStartWrite, 0, untimed.Begin())
		untimed.Fold(0, &one, &one, &one)
	}); n != 0 {
		t.Errorf("untimed bracket allocates %v times", n)
	}
	on := NewRecorder(0, &Config{Metrics: true})
	on.AddSpace(0, "sc")
	if n := testing.AllocsPerRun(100, func() {
		on.End(OpStartWrite, 0, on.Begin())
	}); n != 0 {
		t.Errorf("metrics bracket allocates %v times", n)
	}
	var ns NetStats
	if n := testing.AllocsPerRun(100, func() {
		ns.CountSend(64)
		ns.CountRecv(RecvPumped, 64)
	}); n != 0 {
		t.Errorf("net counters allocate %v times", n)
	}
}

func TestHistogram(t *testing.T) {
	var h hist
	h.observe(0)
	h.observe(1)
	h.observe(1000) // bucket 10: [512, 1024)
	h.observe(-5)   // clamped to 0
	s := h.snapshot()
	if s.Count != 4 || s.SumNS != 1001 {
		t.Errorf("count/sum = %d/%d", s.Count, s.SumNS)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[10] != 1 {
		t.Errorf("buckets: %v", s.Buckets[:12])
	}
	if m := s.Mean(); m != 250*time.Nanosecond {
		t.Errorf("mean = %v", m)
	}
	if q := s.Quantile(1.0); q != 1024*time.Nanosecond {
		t.Errorf("p100 = %v, want 1.024µs", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("p0 = %v, want 0", q)
	}
	sum := s.Add(s)
	if sum.Count != 8 || sum.SumNS != 2002 || sum.Buckets[10] != 2 {
		t.Errorf("Add: %+v", sum)
	}
	if (Histogram{}).Mean() != 0 || (Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram stats nonzero")
	}
}

func TestNetStats(t *testing.T) {
	var s NetStats
	s.CountSend(100)
	s.CountSend(50)
	s.CountRecv(RecvDirect, 100)
	s.CountRecv(RecvPolled, 10)
	s.CountRecv(RecvPumped, 20)
	s.CountRecv(RecvPumped, 30)
	snap := s.Snapshot()
	if snap.MsgsSent != 2 || snap.BytesSent != 150 || snap.MsgsRecv != 4 || snap.BytesRecv != 160 {
		t.Errorf("snapshot: %+v", snap)
	}
	if snap.RecvDirect != 1 || snap.RecvPolled != 1 || snap.RecvPumped != 2 {
		t.Errorf("receive paths: %+v", snap)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{TS: 2000, Dur: 500, Proc: 1, Space: 0, Op: OpStartWrite, Proto: "sc"},
		{TS: 1000, Dur: 300, Proc: 0, Space: -1, Op: OpBarrier},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 2); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name metadata + 2 X events.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(out.TraceEvents))
	}
	var xs []int
	for i, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
		case "X":
			xs = append(xs, i)
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if len(xs) != 2 {
		t.Fatalf("got %d X events", len(xs))
	}
	first, second := out.TraceEvents[xs[0]], out.TraceEvents[xs[1]]
	if first.Name != "barrier" || second.Name != "start_write" {
		t.Errorf("X events not sorted by TS: %q, %q", first.Name, second.Name)
	}
	if first.TS != 1.0 || second.Dur != 0.5 {
		t.Errorf("µs conversion: ts=%v dur=%v", first.TS, second.Dur)
	}
	if first.Args != nil {
		t.Error("space -1 should have no args")
	}
	if second.Args["proto"] != "sc" {
		t.Errorf("args: %v", second.Args)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{
		Spaces: []SpaceMetrics{{Space: 0, Protocol: "sc", Ops: OpCounts{OpMap: 2}}},
	}
	a.Ops[OpMap] = 2
	b := Metrics{
		Spaces: []SpaceMetrics{
			{Space: 0, Protocol: "sc", Ops: OpCounts{OpMap: 3}},
			{Space: 1, Protocol: "update", Ops: OpCounts{OpBarrier: 1}},
		},
	}
	b.Ops[OpMap] = 3
	b.Ops[OpBarrier] = 1
	sum := a.Add(b)
	if sum.Ops.Get(OpMap) != 5 || sum.Ops.Get(OpBarrier) != 1 {
		t.Errorf("ops: %v", sum.Ops)
	}
	if len(sum.Spaces) != 2 {
		t.Fatalf("spaces = %d", len(sum.Spaces))
	}
	if sum.Spaces[0].Ops.Get(OpMap) != 5 {
		t.Errorf("space 0 maps = %d", sum.Spaces[0].Ops.Get(OpMap))
	}
	if sum.Spaces[1].Protocol != "update" {
		t.Errorf("space 1 proto = %q", sum.Spaces[1].Protocol)
	}
}
