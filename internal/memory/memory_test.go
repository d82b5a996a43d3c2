package memory

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestMakeIDRoundTrip(t *testing.T) {
	cases := []struct {
		home int32
		seq  uint64
	}{
		{0, 1}, {0, 12345}, {31, 1}, {31, 1 << 39}, {1000, 999999},
	}
	for _, c := range cases {
		id := MakeID(c.home, c.seq)
		if id.Home() != c.home || id.Seq() != c.seq {
			t.Errorf("MakeID(%d,%d) round-trip gave (%d,%d)", c.home, c.seq, id.Home(), id.Seq())
		}
		if id.IsZero() {
			t.Errorf("MakeID(%d,%d) is zero", c.home, c.seq)
		}
	}
}

func TestMakeIDPanicsOnZeroSeq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for seq 0")
		}
	}()
	MakeID(0, 0)
}

func TestMakeIDPanicsOnNegativeHome(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative home")
		}
	}()
	MakeID(-1, 1)
}

func TestRegionIDRoundTripProperty(t *testing.T) {
	f := func(home uint16, seq uint32) bool {
		h, s := int32(home), uint64(seq)+1
		id := MakeID(h, s)
		return id.Home() == h && id.Seq() == s && !id.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionIDString(t *testing.T) {
	if got := MakeID(3, 7).String(); got != "region<3:7>" {
		t.Errorf("String = %q", got)
	}
	if got := RegionID(0).String(); got != "region<nil>" {
		t.Errorf("zero String = %q", got)
	}
}

func TestTableBasic(t *testing.T) {
	var tb Table[int]
	a, b := new(int), new(int)
	*a, *b = 1, 2

	if got := tb.Get(MakeID(0, 1)); got != nil {
		t.Fatalf("empty Get = %v", got)
	}
	tb.Put(MakeID(0, 1), a)
	tb.Put(MakeID(5, 100), b)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if got := tb.Get(MakeID(0, 1)); got != a {
		t.Fatalf("Get(0:1) = %v", got)
	}
	if got := tb.Get(MakeID(5, 100)); got != b {
		t.Fatalf("Get(5:100) = %v", got)
	}
	if got := tb.Get(MakeID(5, 99)); got != nil {
		t.Fatalf("Get(5:99) = %v, want nil", got)
	}
	if got := tb.Get(MakeID(9, 1)); got != nil {
		t.Fatalf("Get(9:1) = %v, want nil", got)
	}

	// Overwrite does not change Len.
	tb.Put(MakeID(0, 1), b)
	if tb.Len() != 2 {
		t.Fatalf("Len after overwrite = %d", tb.Len())
	}

	tb.Delete(MakeID(0, 1))
	if tb.Len() != 1 || tb.Get(MakeID(0, 1)) != nil {
		t.Fatalf("Delete failed: len=%d", tb.Len())
	}
	// Deleting absent entries is a no-op.
	tb.Delete(MakeID(0, 1))
	tb.Delete(MakeID(77, 3))
	if tb.Len() != 1 {
		t.Fatalf("Len after no-op deletes = %d", tb.Len())
	}
}

func TestTableForEach(t *testing.T) {
	var tb Table[int]
	want := map[RegionID]*int{
		MakeID(0, 1): new(int),
		MakeID(0, 2): new(int),
		MakeID(2, 9): new(int),
	}
	for id, v := range want {
		tb.Put(id, v)
	}
	got := map[RegionID]*int{}
	tb.ForEach(func(id RegionID, v *int) { got[id] = v })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Errorf("ForEach missing %v", id)
		}
	}
}

func TestTablePutGetProperty(t *testing.T) {
	// Whatever sequence of Puts happens, Get returns the last value put.
	f := func(homes []uint8, seqs []uint16) bool {
		var tb Table[int]
		last := map[RegionID]*int{}
		n := min(len(homes), len(seqs))
		for i := 0; i < n; i++ {
			id := MakeID(int32(homes[i]), uint64(seqs[i])+1)
			v := new(int)
			tb.Put(id, v)
			last[id] = v
		}
		if tb.Len() != len(last) {
			return false
		}
		for id, v := range last {
			if tb.Get(id) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTableConcurrentGet runs lock-free readers against one serialized
// writer that puts, deletes and keeps growing rows and the home level.
// A reader may see an entry before or after a write, but never a torn
// slot: whatever Get returns for an id is nil or the value stored for
// that id. Run under -race it checks the copy-on-grow publication.
func TestTableConcurrentGet(t *testing.T) {
	const (
		homes   = 6
		perHome = 300
		readers = 4
	)
	var tb Table[RegionID]
	val := func(id RegionID) *RegionID { v := id; return &v }
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := MakeID(int32((i+g)%homes), uint64(i%perHome)+1)
				if v := tb.Get(id); v != nil && *v != id {
					errs <- fmt.Errorf("Get(%v) = %v", id, *v)
					return
				}
			}
		}(g)
	}
	// The writer fills homes in turn, so both the home level and every
	// row grow while readers run; every third entry is deleted again.
	for s := 1; s <= perHome; s++ {
		for h := 0; h < homes; h++ {
			id := MakeID(int32(h), uint64(s))
			tb.Put(id, val(id))
			if s%3 == 0 {
				tb.Delete(id)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := homes * (perHome - perHome/3); tb.Len() != want {
		t.Fatalf("Len = %d, want %d", tb.Len(), want)
	}
	for h := 0; h < homes; h++ {
		for s := 1; s <= perHome; s++ {
			id := MakeID(int32(h), uint64(s))
			v := tb.Get(id)
			if s%3 == 0 {
				if v != nil {
					t.Fatalf("deleted %v still present", id)
				}
			} else if v == nil || *v != id {
				t.Fatalf("Get(%v) = %v after the writer finished", id, v)
			}
		}
	}
}

func TestDataAccessors(t *testing.T) {
	d := make(Data, 64)
	d.SetFloat64(0, 3.5)
	d.SetFloat64(7, -1e300)
	if d.Float64(0) != 3.5 || d.Float64(7) != -1e300 {
		t.Fatal("float64 round trip failed")
	}
	d.SetInt64(1, -42)
	if d.Int64(1) != -42 {
		t.Fatal("int64 round trip failed")
	}
	d.SetUint64(2, math.MaxUint64)
	if d.Uint64(2) != math.MaxUint64 {
		t.Fatal("uint64 round trip failed")
	}
	d.SetInt32(6, -7)
	if d.Int32(6) != -7 {
		t.Fatal("int32 round trip failed")
	}
	id := MakeID(4, 99)
	d.SetRegionID(3, id)
	if d.RegionID(3) != id {
		t.Fatal("region id round trip failed")
	}
	if d.Words() != 8 {
		t.Fatalf("Words = %d, want 8", d.Words())
	}
}

func TestDataAccessorProperty(t *testing.T) {
	f := func(vals []float64) bool {
		d := make(Data, len(vals)*8)
		for i, v := range vals {
			d.SetFloat64(i, v)
		}
		for i, v := range vals {
			got := d.Float64(i)
			if math.IsNaN(v) {
				if !math.IsNaN(got) {
					return false
				}
			} else if got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
