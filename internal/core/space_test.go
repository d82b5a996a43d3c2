package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFreeSpaceRecyclesSlot pins the lifecycle basics: FreeSpace nils
// the table slot, a subsequent NewSpace reuses the lowest freed slot
// under a bumped generation, and the freed space's regions leave the
// region table.
func TestFreeSpaceRecyclesSlot(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		slot, ref := sp.ID, sp.Ref()

		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 64)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.StartWrite(r)
		r.Data.SetInt64(0, int64(p.ID()))
		p.EndWrite(r)
		p.Unmap(r)
		p.Barrier(sp)

		before := p.regions.Len()
		if err := p.FreeSpace(sp); err != nil {
			return err
		}
		if !sp.Freed() {
			return errors.New("space not marked freed")
		}
		if got := p.regions.Len(); got >= before {
			return fmt.Errorf("region table did not shrink: %d -> %d", before, got)
		}
		if _, err := p.SpaceByRef(ref); !errors.Is(err, ErrStaleSpace) {
			return fmt.Errorf("stale ref resolved: err=%v", err)
		}

		sp2, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if sp2.ID != slot {
			return fmt.Errorf("freed slot %d not recycled: got %d", slot, sp2.ID)
		}
		if sp2.Gen != ref.Gen+1 {
			return fmt.Errorf("recycled slot generation %d, want %d", sp2.Gen, ref.Gen+1)
		}
		// The stale ref must still refuse to resolve to the new occupant.
		if _, err := p.SpaceByRef(ref); !errors.Is(err, ErrStaleSpace) {
			return fmt.Errorf("stale ref aliased recycled slot: err=%v", err)
		}
		if got, err := p.SpaceByRef(sp2.Ref()); err != nil || got != sp2 {
			return fmt.Errorf("fresh ref failed: %v", err)
		}
		return p.FreeSpace(sp2)
	})
}

// TestFreeSpaceGuards pins the refusals: the default space cannot be
// freed, and a double free fails with ErrStaleSpace on every processor
// (checked before the collective rendezvous, so a lone double-free call
// cannot hang the cluster).
func TestFreeSpaceGuards(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if err := p.FreeSpace(p.DefaultSpace()); err == nil {
			return errors.New("freed the default space")
		}
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if err := p.FreeSpace(sp); err != nil {
			return err
		}
		if err := p.FreeSpace(sp); !errors.Is(err, ErrStaleSpace) {
			return fmt.Errorf("double free: err=%v", err)
		}
		return nil
	})
}

// TestGMallocEErrors is the regression test for the GMalloc panic
// bugfix: client-derived sizes and stale spaces must come back as
// errors from GMallocE, never as panics.
func TestGMallocEErrors(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		sp := p.DefaultSpace()
		for _, size := range []int{0, -1, MaxRegionSize + 1} {
			if _, err := p.GMallocE(sp, size); !errors.Is(err, ErrBadSize) {
				return fmt.Errorf("size %d: err=%v, want ErrBadSize", size, err)
			}
		}
		if _, err := p.GMallocE(sp, 8); err != nil {
			return fmt.Errorf("valid size: %v", err)
		}
		sp2, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if err := p.FreeSpace(sp2); err != nil {
			return err
		}
		if _, err := p.GMallocE(sp2, 8); !errors.Is(err, ErrStaleSpace) {
			return fmt.Errorf("freed space: err=%v, want ErrStaleSpace", err)
		}
		return nil
	})
}

// TestGMallocStillPanics pins GMalloc's contract for SPMD code: the
// panic on a programmer-error size is unchanged by the bugfix.
func TestGMallocStillPanics(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		defer func() {
			if recover() == nil {
				t.Error("GMalloc(0) did not panic")
			}
		}()
		p.GMalloc(p.DefaultSpace(), 0)
		return nil
	})
}

// TestSpaceChurnBounded creates and destroys spaces in waves across
// procs and asserts the table stays bounded by the wave's width — the
// leak the append-only space table had. Runs under -race in CI.
func TestSpaceChurnBounded(t *testing.T) {
	const waves, width = 8, 4
	run(t, 3, func(p *Proc) error {
		base := p.SpaceSlots()
		for w := 0; w < waves; w++ {
			var sps []*Space
			for i := 0; i < width; i++ {
				sp, err := p.NewSpace("sc")
				if err != nil {
					return err
				}
				sps = append(sps, sp)
			}
			// Touch each space so destruction has regions to purge.
			for _, sp := range sps {
				var id RegionID
				if p.ID() == 0 {
					id = p.GMalloc(sp, 32)
				}
				id = p.BroadcastID(0, id)
				r := p.Map(id)
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(w))
				p.EndWrite(r)
				p.Unmap(r)
				p.Barrier(sp)
			}
			// Free in a different order than creation: slot reuse must
			// stay deterministic because the free list is sorted.
			for i := len(sps) - 1; i >= 0; i-- {
				if err := p.FreeSpace(sps[i]); err != nil {
					return err
				}
			}
			if got := p.SpaceSlots(); got > base+width {
				return fmt.Errorf("wave %d: table grew to %d slots (base %d, width %d)", w, got, base, width)
			}
		}
		if live := p.LiveSpaces(); live != 1 {
			return fmt.Errorf("%d live spaces after churn, want 1 (default)", live)
		}
		return nil
	})
}

// TestCheckpointSkipsFreedSlots pins elastic interop: a checkpoint
// taken while the table holds freed slots records them as empty and
// restores onto a matching table.
func TestCheckpointSkipsFreedSlots(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if err := p.FreeSpace(sp); err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.StartWrite(r)
		r.Data.SetInt64(0, 7)
		p.EndWrite(r)
		p.GlobalBarrier()

		ck, err := p.Checkpoint(1)
		if err != nil {
			return err
		}
		if len(ck.Protos) != p.SpaceSlots() {
			return fmt.Errorf("checkpoint names %d spaces, table has %d slots", len(ck.Protos), p.SpaceSlots())
		}
		if ck.Protos[sp.ID] != "" {
			return fmt.Errorf("freed slot recorded as %q", ck.Protos[sp.ID])
		}
		buf := EncodeCheckpoint(ck)
		ck2, err := DecodeCheckpoint(buf)
		if err != nil {
			return err
		}
		// A file in the retired ACK1 layout (which carried a barrier
		// generation) must be refused, not misparsed.
		old := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(old, 0x41434b31) // "ACK1"
		if _, err := DecodeCheckpoint(old); err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
			return fmt.Errorf("ACK1 checkpoint decoded: err=%v", err)
		}
		if err := p.RestoreCheckpoint(ck2); err != nil {
			return err
		}
		p.StartRead(r)
		v := r.Data.Int64(0)
		p.EndRead(r)
		if v != 7 {
			return fmt.Errorf("restored value %d, want 7", v)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestLifecycleMismatchFailsEverywhere: on each row processor 1 makes a
// different lifecycle call from processors 0 and 2. The verifying round
// that opens every lifecycle collective must report the mismatch on
// every processor, the root included, before anything is created,
// switched, flushed or freed, and Run must end. The rows act on a space
// whose region the non-homes have read, so a call the verify let
// through would flush their copies.
func TestLifecycleMismatchFailsEverywhere(t *testing.T) {
	type env struct {
		p    *Proc
		a, b *Space
	}
	// on1 returns alt on processor 1 and v elsewhere.
	on1 := func(p *Proc, v, alt string) string {
		if p.ID() == 1 {
			return alt
		}
		return v
	}
	for _, row := range []struct {
		name   string
		call   func(e env) error
		intact func(e env) bool // nil: only the copies are checked
	}{
		{"NewSpace",
			func(e env) error { _, err := e.p.NewSpace(on1(e.p, "sc", "sc2")); return err },
			func(e env) bool { return e.p.SpaceSlots() == 3 && e.p.LiveSpaces() == 3 }},
		{"ChangeProtocol",
			func(e env) error { return e.p.ChangeProtocol(e.a, on1(e.p, "sc", "sc2")) },
			func(e env) bool { return e.a.Epoch == 0 && e.a.ProtoName == "sc" }},
		{"Checkpoint",
			func(e env) error { _, err := e.p.Checkpoint(uint64(e.p.ID() % 2)); return err }, // app cursor 1 on proc 1, 0 elsewhere
			nil},
		{"FreeSpace",
			func(e env) error {
				victim := e.a
				if e.p.ID() == 1 {
					victim = e.b
				}
				return e.p.FreeSpace(victim)
			},
			func(e env) bool { return !e.a.Freed() && !e.b.Freed() }},
	} {
		t.Run(row.name, func(t *testing.T) {
			reg := NewRegistry()
			sc2 := scInfo()
			sc2.Name = "sc2"
			reg.MustRegister(sc2)
			cl, err := NewCluster(Options{Procs: 3, Registry: reg, SyncTimeout: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			errs := make([]error, 3)
			done := make(chan error, 1)
			go func() {
				done <- cl.Run(func(p *Proc) error {
					a, err := p.NewSpace("sc")
					if err != nil {
						return err
					}
					b, err := p.NewSpace("sc")
					if err != nil {
						return err
					}
					var id RegionID
					if p.ID() == 0 {
						id = p.GMalloc(a, 8)
					}
					r := p.Map(p.BroadcastID(0, id))
					p.StartRead(r)
					p.EndRead(r)
					p.Unmap(r)
					e := env{p, a, b}
					err = row.call(e)
					if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
						errs[p.ID()] = fmt.Errorf("returned %v, want a collective mismatch", err)
					}
					a.eng.Lock()
					flushed := !r.IsHome() && r.State == scInvalid
					a.eng.Unlock()
					if flushed || (row.intact != nil && !row.intact(e)) {
						return fmt.Errorf("proc %d: a mismatched %s changed the cluster (copy flushed: %v)", p.ID(), row.name, flushed)
					}
					// Every processor left the one verifying round, so
					// they are still in step.
					p.GlobalBarrier()
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("Run hung after a mismatched %s", row.name)
			}
			for i, err := range errs {
				if err != nil {
					t.Errorf("proc %d: %s %v", i, row.name, err)
				}
			}
		})
	}
}
