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

// TestFreeSpaceMismatchFailsEverywhere calls FreeSpace on two different
// spaces: processor 0 and 2 free one, processor 1 the other. The
// verifying round must report the mismatch on every processor, the root
// included, and Run must end: nobody goes on to flush or free.
func TestFreeSpaceMismatchFailsEverywhere(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 3, SyncTimeout: 60 * time.Second})
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
			victim := a
			if p.ID() == 1 {
				victim = b
			}
			errs[p.ID()] = p.FreeSpace(victim)
			if a.Freed() || b.Freed() {
				return fmt.Errorf("proc %d: a mismatched FreeSpace freed a space", p.ID())
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after a mismatched FreeSpace")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
			t.Errorf("proc %d: FreeSpace returned %v, want a collective mismatch", i, err)
		}
	}
}
