package proto

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

func TestWriteThroughPhases(t *testing.T) {
	const procs, phases = 4, 6
	run(t, procs, "writethrough", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 16)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		// Scattered writers: proc p writes region (p+1) mod procs — the
		// point of writethrough over homewrite.
		target := p.Map(ids[(p.ID()+1)%procs])
		for ph := 1; ph <= phases; ph++ {
			p.StartWrite(target)
			target.Data.SetInt64(0, int64(p.ID()*100+ph))
			p.EndWrite(target)
			p.Barrier(sp)
			for q := 0; q < procs; q++ {
				r := p.Map(ids[q])
				p.StartRead(r)
				writer := (q + procs - 1) % procs
				if got := r.Data.Int64(0); got != int64(writer*100+ph) {
					return fmt.Errorf("proc %d phase %d region %d: got %d", p.ID(), ph, q, got)
				}
				p.EndRead(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
		}
		return nil
	})
}

func TestWriteThroughPartialWrites(t *testing.T) {
	// StartWrite fetches current contents, so a writer touching one slot
	// must preserve the others.
	run(t, 2, "writethrough", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 24)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 10)
			r.Data.SetInt64(1, 20)
			r.Data.SetInt64(2, 30)
			p.EndWrite(r)
		}
		id = p.BroadcastID(0, id)
		p.Barrier(sp)
		if p.ID() == 1 {
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(1, 99) // touch only the middle slot
			p.EndWrite(r)
		}
		p.Barrier(sp)
		r := p.Map(id)
		p.StartRead(r)
		if r.Data.Int64(0) != 10 || r.Data.Int64(1) != 99 || r.Data.Int64(2) != 30 {
			return fmt.Errorf("partial write clobbered: %d %d %d",
				r.Data.Int64(0), r.Data.Int64(1), r.Data.Int64(2))
		}
		p.EndRead(r)
		p.Barrier(sp)
		return nil
	})
}

func TestDrainBlock(t *testing.T) {
	// The Drain block's accounting, exercised directly on a bare Drain.
	var d Drain
	if d.Outstanding() != 0 {
		t.Fatal("fresh drain not zero")
	}
	d.Add(3)
	if d.Outstanding() != 3 {
		t.Fatal("Add failed")
	}
	// Ack below zero must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("over-ack should panic")
		}
	}()
	d.outstanding = 0
	d.Ack(nil)
}

func TestSelfInvalidateOnlyRemote(t *testing.T) {
	run(t, 2, "writethrough", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 5)
			p.EndWrite(r)
		}
		id = p.BroadcastID(0, id)
		p.Barrier(sp)
		r := p.Map(id)
		p.StartRead(r)
		p.EndRead(r)
		p.GlobalBarrier() // proc 1's fetch has been served
		if p.ID() == 0 {
			// writethrough leaves a home region's State unused; mark it
			// so the check below sees whether SelfInvalidate touched it.
			r.State = stValid
		}
		p.Barrier(sp) // self-invalidates remote copies
		if p.ID() == 0 {
			if r.State != stValid {
				return fmt.Errorf("home copy invalidated at barrier")
			}
		} else if r.State != stInvalid {
			return fmt.Errorf("remote copy not invalidated at barrier")
		}
		return nil
	})
}

// recvd and sent read p's message counters. Call from p's Run function.
func recvd(p *core.Proc) uint64 { return p.Snapshot().Net.MsgsRecv }
func sent(p *core.Proc) uint64  { return p.Snapshot().Net.MsgsSent }

// fence returns once every message p received before the call has been
// handled and every message p sent before it has been counted: it maps
// f, a region p has never mapped, which is one lookup round trip. Under
// pumped delivery a message is counted as its handler starts on p's
// pump, and the lookup's reply comes through the same pump; a send is
// counted as it is made. Hand f to p in a Go variable, not a broadcast:
// a broadcast id carries its region's size and space, so p's Map of it
// would send nothing.
func fence(p *core.Proc, f core.RegionID) { p.Map(f) }

// awaitHandled returns once p has received more than base messages and
// handled the one that moved the count past base.
func awaitHandled(p *core.Proc, base uint64, f core.RegionID) {
	for recvd(p) <= base {
		runtime.Gosched()
	}
	fence(p, f)
}

// pumped runs a two-processor cluster on a channel fabric whose
// endpoints drop RegisterTry and Poll, which turns off direct dispatch:
// every message is delivered by its receiver's pump and counted in
// MsgsRecv before its handler starts, so a processor's count never lags
// a message it has been woken by. (A directly dispatched message is
// counted once its TryHandler has accepted it.)
func pumped(t *testing.T, defaultProto string, fn func(p *core.Proc) error) {
	t.Helper()
	nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nw.Close() })
	runOpts(t, core.Options{Procs: 2, DefaultProtocol: defaultProto, Transport: amnet.Fixed(pumpOnly{nw})}, fn)
}

// pumpOnly is a network whose endpoints keep every delivery on their
// pumps.
type pumpOnly struct{ amnet.Network }

func (n pumpOnly) Endpoints() []amnet.Endpoint {
	eps := n.Network.Endpoints()
	for i, ep := range eps {
		eps[i] = pumpOnlyEndpoint{ep}
	}
	return eps
}

type pumpOnlyEndpoint struct{ amnet.Endpoint }

func (pumpOnlyEndpoint) RegisterTry(amnet.HandlerID, amnet.TryHandler) {}
func (pumpOnlyEndpoint) Poll()                                         {}

// The two deferral tests below hand a turn from one processor to the
// other through a Go channel, so the observing processor can read its
// receive count at a moment when nothing is in flight to it: the next
// message it counts is the one under test. The observer closes the
// channel once, and on any early return, so its peer never waits on it
// forever.

// TestPushDeferredWhileSectionOpen drives PushSink's deferral: the
// home's barrier push reaches a sharer that holds both pushed regions
// in open read sections. Each section keeps seeing the old value, each
// region takes the new one once its section closes, and the frame's one
// ack goes out only after the second close.
func TestPushDeferredWhileSectionOpen(t *testing.T) {
	for _, name := range []string{"update", "staticupdate"} {
		t.Run(name, func(t *testing.T) {
			open := make(chan struct{})
			release := sync.OnceFunc(func() { close(open) })
			var fences [3]core.RegionID // written by proc 0 before it broadcasts a and b
			pumped(t, name, func(p *core.Proc) error {
				sp := p.DefaultSpace()
				if p.ID() == 0 {
					for i := range fences {
						fences[i] = p.GMalloc(sp, 8)
					}
				}
				var ids [2]core.RegionID // a and b
				for i := range ids {
					if p.ID() == 0 {
						ids[i] = p.GMalloc(sp, 8)
					}
					ids[i] = p.BroadcastID(0, ids[i])
				}
				ra, rb := p.Map(ids[0]), p.Map(ids[1])
				read := func(r *core.Region) int64 {
					p.StartRead(r)
					defer p.EndRead(r)
					return r.Data.Int64(0)
				}
				if p.ID() == 0 {
					for v := int64(1); v <= 2; v++ {
						if v == 2 {
							<-open
						}
						for _, r := range []*core.Region{ra, rb} {
							p.StartWrite(r)
							r.Data.SetInt64(0, v)
							p.EndWrite(r)
						}
						p.Barrier(sp)
					}
					return nil
				}
				defer release()
				p.Barrier(sp)
				if read(ra) != 1 || read(rb) != 1 { // registers as a sharer
					return fmt.Errorf("first fetch did not see 1")
				}
				p.StartRead(ra)
				p.StartRead(rb)
				base := recvd(p)
				release()                        // the home writes and pushes
				awaitHandled(p, base, fences[0]) // the push frame for a and b
				if ra.Data.Int64(0) != 1 || rb.Data.Int64(0) != 1 {
					return fmt.Errorf("push landed in an open section: a=%d b=%d", ra.Data.Int64(0), rb.Data.Int64(0))
				}
				before := sent(p)
				p.EndRead(ra)
				fence(p, fences[1])
				if n := sent(p) - before - 1; n != 0 {
					return fmt.Errorf("%d messages sent while b still held the frame", n)
				}
				if got := read(ra); got != 2 {
					return fmt.Errorf("a after its section closed: %d, want 2", got)
				}
				if got := rb.Data.Int64(0); got != 1 {
					return fmt.Errorf("b changed inside its section: %d", got)
				}
				before = sent(p)
				p.EndRead(rb)
				fence(p, fences[2])
				if n := sent(p) - before - 1; n != 1 {
					return fmt.Errorf("%d messages after the last close, want the frame's one ack", n)
				}
				if got := read(rb); got != 2 {
					return fmt.Errorf("b after its section closed: %d, want 2", got)
				}
				p.Barrier(sp)
				return nil
			})
		})
	}
}

// TestFetchDeferredDuringHomeWrite drives Fetcher's home-side deferral:
// a sharer's first fetch reaches the home while the home holds the
// region in a write section. It is answered when the section closes,
// with the value written in it, and registers the requester: the next
// barrier's push reaches it.
func TestFetchDeferredDuringHomeWrite(t *testing.T) {
	for _, name := range []string{"update", "staticupdate"} {
		t.Run(name, func(t *testing.T) {
			open := make(chan struct{})
			release := sync.OnceFunc(func() { close(open) })
			var f core.RegionID // the fence, written by proc 1 before the barrier
			pumped(t, name, func(p *core.Proc) error {
				sp := p.DefaultSpace()
				var id core.RegionID
				if p.ID() == 0 {
					id = p.GMalloc(sp, 8)
				} else {
					f = p.GMalloc(sp, 8)
				}
				r := p.Map(p.BroadcastID(0, id))
				p.GlobalBarrier() // f is written
				if p.ID() == 0 {
					defer release()
					p.StartWrite(r)
					r.Data.SetInt64(0, 6)
					base := recvd(p)
					release() // the sharer fetches
					awaitHandled(p, base, f)
					r.Data.SetInt64(0, 7) // a reply sent mid-section would carry 6
					p.EndWrite(r)
					p.Barrier(sp)
					p.StartWrite(r)
					r.Data.SetInt64(0, 8)
					p.EndWrite(r)
					p.Barrier(sp)
					p.Barrier(sp)
					return nil
				}
				<-open
				p.StartRead(r)
				got := r.Data.Int64(0)
				p.EndRead(r)
				if got != 7 {
					return fmt.Errorf("deferred fetch read %d, want the section's final 7", got)
				}
				p.Barrier(sp)
				p.Barrier(sp)
				p.StartRead(r)
				got = r.Data.Int64(0)
				p.EndRead(r)
				if got != 8 {
					return fmt.Errorf("read %d after the next push, want 8: fetch did not register a sharer", got)
				}
				p.Barrier(sp)
				return nil
			})
		})
	}
}

// TestProtocolsUseBlocks is the building-block gate: outside blocks.go,
// no protocol keeps its own acknowledgement counter or hand-rolls a
// fetch round trip, and nowhere in the package does a protocol keep its
// own dirty list: the write log and its written bit belong to the
// runtime. It parses the package's non-test sources and fails on
//
//   - a struct field named outstanding, drainSeq or waitSeq (Drain's
//     state) outside blocks.go;
//   - a struct field of type []*core.Region (a dirty slice), or a
//     Flags expression naming a dirty bit;
//   - a call to NewWaiter outside the waits that are not fetches:
//     atomic's home-queue wait and migratory's home-queue wait and
//     ownership flush.
func TestProtocolsUseBlocks(t *testing.T) {
	waitAllowed := map[string]bool{
		"atomicProto.StartWrite":    true,
		"migratoryProto.acquire":    true,
		"migratoryProto.FlushSpace": true,
	}
	banned := map[string]bool{"outstanding": true, "drainSeq": true, "waitSeq": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	// dirtyFlag reports (and fails on) an expression that names both
	// Region.Flags and a dirty bit.
	dirtyFlag := func(pos token.Pos, es ...ast.Expr) bool {
		var src []string
		for _, e := range es {
			src = append(src, types.ExprString(e))
		}
		all := strings.Join(src, " ")
		if !strings.Contains(all, ".Flags") || !strings.Contains(strings.ToLower(all), "dirty") {
			return false
		}
		t.Errorf("%s: dirty bit in Region.Flags (%s): use Ctx.LogWrite", fset.Position(pos), all)
		return true
	}
	scanned := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if typ := types.ExprString(field.Type); typ == "[]*core.Region" {
						t.Errorf("%s: struct field of type %s: use Ctx.LogWrite", fset.Position(field.Pos()), typ)
					}
				}
			case *ast.BinaryExpr:
				return !dirtyFlag(n.Pos(), n)
			case *ast.AssignStmt:
				return !dirtyFlag(n.Pos(), append(n.Lhs, n.Rhs...)...)
			}
			return true
		})
		if name == "blocks.go" {
			continue
		}
		scanned++
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if banned[id.Name] {
						t.Errorf("%s: struct field %s: use Drain", fset.Position(id.Pos()), id.Name)
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				where = types.ExprString(recv) + "." + where
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewWaiter" && !waitAllowed[where] {
					t.Errorf("%s: %s calls NewWaiter: fetch with Fetcher, drain with Drain", fset.Position(call.Pos()), where)
				}
				return true
			})
		}
	}
	if scanned < 10 {
		t.Fatalf("scanned %d protocol sources, want the whole library", scanned)
	}
}
