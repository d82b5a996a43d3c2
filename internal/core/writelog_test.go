package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// logProto is the smallest protocol that publishes FastWriteLogged:
// writes are home-only, and EndWrite logs the region and serves the
// fetches that queued on the directory while the home was writing
// (staticupdate's shape). Remote reads fetch every time. Its FlushSpace
// ships nothing and leaves the write log alone, so only the runtime's
// resets can empty it.
type logProto struct{ Base }

const logFetch uint64 = 1

func (*logProto) Name() string { return "logw" }

func (*logProto) StartRead(ctx *Ctx, r *Region) {
	if r.IsHome() {
		return
	}
	seq := ctx.NewWaiter()
	ctx.SendProto(r.Home, uint64(r.ID), seq, logFetch, uint64(r.Space.ID), nil)
	m := ctx.Wait(seq)
	copy(r.Data, m.Payload)
	ctx.Recycle(m.Payload)
}

func (*logProto) StartWrite(ctx *Ctx, r *Region) {
	if !r.IsHome() {
		panic("logw: remote write")
	}
}

func (*logProto) EndWrite(ctx *Ctx, r *Region) {
	ctx.LogWrite(r)
	if r.Writers() == 0 {
		for _, req := range r.Dir.Waiting {
			ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
		}
		r.Dir.Waiting = nil
	}
}

func (*logProto) Deliver(ctx *Ctx, _ *Space, r *Region, m amnet.Msg) {
	if r.Writers() > 0 {
		r.Dir.Waiting = append(r.Dir.Waiting, PendingReq{Src: m.Src, Seq: m.B})
		return
	}
	ctx.SendComplete(m.Src, m.B, 0, r.Data)
}

func (*logProto) FastBits(r *Region) FastBits {
	switch {
	case !r.IsHome():
		return 0
	case len(r.Dir.Waiting) > 0:
		return FastRead
	}
	return FastRead | FastWriteLogged
}

// runLog is run on a cluster whose default space runs logProto.
func runLog(t *testing.T, n int, fn func(p *Proc) error) {
	t.Helper()
	reg := NewRegistry()
	reg.MustRegister(Info{Name: "logw", New: func() Protocol { return &logProto{} }})
	cl, err := NewCluster(Options{Procs: n, Registry: reg, DefaultProtocol: "logw", SyncTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	if err := cl.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// fastCloses returns how many write closes have committed on the fast
// path in p's default space.
func fastCloses(p *Proc) uint64 { return p.Snapshot().FastOps[trace.OpEndWrite] }

// logged reports whether r is on its space's write log, and fails if
// the log and r's written bit disagree.
func logged(r *Region) (bool, error) {
	n := 0
	for _, x := range r.Space.log {
		if x == r {
			n++
		}
	}
	bit := r.hot.Load()&rwWritten != 0
	if n > 1 || bit != (n == 1) {
		return false, fmt.Errorf("%v: %d log entries, written bit %v", r.ID, n, bit)
	}
	return bit, nil
}

// TestLoggedWriteOpenedSlowClosedFast: flushFenced withdraws every fast
// bit, so the next write section opens on the slow path, and the
// protocol's refresh publishes FastWriteLogged before the close. The
// fast close must still log the region: the log is written at the
// close, whichever path the open took.
func TestLoggedWriteOpenedSlowClosedFast(t *testing.T) {
	runLog(t, 1, func(p *Proc) error {
		sp := p.DefaultSpace()
		r := p.Map(p.GMalloc(sp, 8))
		p.flushFenced(sp)
		if r.hot.Load()&rwFastMask != 0 {
			return fmt.Errorf("fast bits %x survive flushFenced", r.hot.Load()&rwFastMask)
		}
		opens, closes := p.Snapshot().FastOps[trace.OpStartWrite], fastCloses(p)
		p.StartWrite(r)
		r.Data.SetInt64(0, 7)
		p.EndWrite(r)
		if got := p.Snapshot().FastOps[trace.OpStartWrite] - opens; got != 0 {
			return fmt.Errorf("the open after flushFenced hit the fast path")
		}
		if got := fastCloses(p) - closes; got != 1 {
			return fmt.Errorf("%d fast closes, want 1", got)
		}
		if ok, err := logged(r); err != nil || !ok {
			return fmt.Errorf("slow-opened, fast-closed write not logged (%v)", err)
		}
		return nil
	})
}

// TestFetchDuringFastWriteServedAtClose: a sharer's fetch that arrives
// while the home holds a fast-opened write section queues on
// Dir.Waiting, and the refresh after Deliver withdraws FastWriteLogged.
// The close therefore goes slow and serves the fetch with the written
// value — and still logs the region. Were the logged bit left standing,
// the close would commit on the fast path and the fetch would wait
// until SyncTimeout.
func TestFetchDuringFastWriteServedAtClose(t *testing.T) {
	runLog(t, 2, func(p *Proc) error {
		sp := p.DefaultSpace()
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		r := p.Map(p.BroadcastID(0, id))
		if p.ID() == 0 {
			p.StartWrite(r)
			if p.Snapshot().FastOps[trace.OpStartWrite] != 1 {
				return fmt.Errorf("home write did not open on the fast path")
			}
		}
		p.GlobalBarrier()
		if p.ID() == 1 {
			p.StartRead(r)
			got := r.Data.Int64(0)
			p.EndRead(r)
			if got != 42 {
				return fmt.Errorf("fetch served %d, want the closed write's 42", got)
			}
			p.GlobalBarrier()
			return nil
		}
		for queued := false; !queued; {
			sp.eng.Lock()
			queued = len(r.Dir.Waiting) > 0
			sp.eng.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
		r.Data.SetInt64(0, 42)
		closes := fastCloses(p)
		p.EndWrite(r)
		if got := fastCloses(p) - closes; got != 0 {
			return fmt.Errorf("close with a queued fetch hit the fast path")
		}
		if ok, err := logged(r); err != nil || !ok {
			return fmt.Errorf("slow close did not log the write (%v)", err)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestResetsDropWriteLog: every space-wide reset leaves the write log
// empty and no written bit set, even under a protocol whose flush does
// not take the log. Each row logs writes to two home regions on every
// processor, checks they are logged, and resets. Only homes touch the
// regions, so FreeSpace skips its flush and must drop the log itself.
func TestResetsDropWriteLog(t *testing.T) {
	rows := []struct {
		name string
		op   func(p *Proc, sp *Space, ck *Checkpoint) error
	}{
		{"ChangeProtocol", func(p *Proc, sp *Space, _ *Checkpoint) error {
			return p.ChangeProtocol(sp, "logw")
		}},
		{"Checkpoint", func(p *Proc, _ *Space, _ *Checkpoint) error {
			_, err := p.Checkpoint(1)
			return err
		}},
		{"RestoreCheckpoint", func(p *Proc, _ *Space, ck *Checkpoint) error {
			p.GlobalBarrier()
			return p.RestoreCheckpoint(ck)
		}},
		{"FreeSpace", func(p *Proc, sp *Space, _ *Checkpoint) error {
			return p.FreeSpace(sp)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			runLog(t, 2, func(p *Proc) error {
				sp, err := p.NewSpace("logw")
				if err != nil {
					return err
				}
				ids := make([]RegionID, 2*p.Procs())
				var mine []*Region
				for i := range ids {
					home := i % p.Procs()
					if p.ID() == home {
						ids[i] = p.GMalloc(sp, 8)
						mine = append(mine, p.Map(ids[i]))
					}
					ids[i] = p.BroadcastID(home, ids[i])
				}
				ck, err := p.Checkpoint(0)
				if err != nil {
					return err
				}
				for _, r := range mine {
					p.StartWrite(r)
					r.Data.SetInt64(0, int64(r.ID))
					p.EndWrite(r)
					if ok, err := logged(r); err != nil || !ok {
						return fmt.Errorf("proc %d: write to %v not logged (%v)", p.ID(), r.ID, err)
					}
				}
				if err := row.op(p, sp, ck); err != nil {
					return err
				}
				if len(sp.log) != 0 {
					return fmt.Errorf("proc %d: %s left %d write-log entries", p.ID(), row.name, len(sp.log))
				}
				for _, r := range mine {
					if r.hot.Load()&rwWritten != 0 {
						return fmt.Errorf("proc %d: %s left %v's written bit set", p.ID(), row.name, r.ID)
					}
				}
				p.GlobalBarrier()
				return nil
			})
		})
	}
}
