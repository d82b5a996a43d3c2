// Writing a new protocol: the extensibility mechanism of Section 2.4.
//
// This program defines a *tracing* protocol — a thin wrapper over the
// runtime's services that counts every access-control invocation and
// piggybacks on the default lock and barrier — registers it (the analogue
// of running the paper's registration script, Figure 1), emits the system
// configuration file the compiler would consume, and runs an application
// under it.
//
// Protocols receive full access control: hooks before and after reads and
// writes and at synchronization points, with ctx.* providing the messaging
// and waiter substrate (Section 3.2). The protocol library's building
// blocks (package proto, blocks.go) package the common mechanisms on top
// of it; this protocol is built from two of them.
//
// Run: go run ./examples/customproto
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"

	"github.com/acedsm/ace"
	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/proto"
)

// traceProto is a simple custom protocol: a verified-fetch protocol for
// read-mostly data. Reads fetch from the home on first touch and count
// accesses; writes must be home-local (it is a read-mostly protocol);
// barriers self-invalidate cached copies so each phase re-reads fresh
// data. It demonstrates the pieces a protocol designer combines: local
// state, per-space instance fields, and two building blocks — a
// proto.Fetcher for the one message verb (Pull on the reader, Serve at
// the home) and proto.SelfInvalidate at barriers.
type traceProto struct {
	ace.Base
	fetch                  proto.Fetcher
	reads, writes, fetches atomic.Int64
}

const verbFetch = 1

func (t *traceProto) Name() string { return "trace" }

// StartRead pulls a copy from the home unless it holds a valid one;
// a pull that fetched leaves the copy's State changed.
func (t *traceProto) StartRead(ctx *ace.Ctx, r *ace.Region) {
	t.reads.Add(1)
	before := r.State
	t.fetch.Pull(ctx, r)
	if r.State != before {
		t.fetches.Add(1)
	}
}

func (t *traceProto) StartWrite(ctx *ace.Ctx, r *ace.Region) {
	t.writes.Add(1)
	if !r.IsHome() {
		panic("trace protocol: writes must be home-local")
	}
}

func (t *traceProto) Barrier(ctx *ace.Ctx, sp *ace.Space) {
	proto.SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

func (t *traceProto) Deliver(ctx *ace.Ctx, sp *ace.Space, r *ace.Region, m amnet.Msg) {
	switch m.C {
	case verbFetch:
		t.fetch.Serve(ctx, r, m)
	default:
		panic(fmt.Sprintf("trace protocol: bad verb %d", m.C))
	}
}

func main() {
	// Register the protocol: name, factory, optimizable flag, null
	// points — the contents of the Figure 1 registration form.
	reg := ace.NewRegistry()
	info := ace.Info{
		Name:        "trace",
		New:         func() ace.Protocol { return &traceProto{fetch: proto.Fetcher{Verb: verbFetch}} },
		Optimizable: true,
		Null: ace.PointSet(0).
			With(ace.PointMap).
			With(ace.PointUnmap).
			With(ace.PointEndRead).
			With(ace.PointEndWrite),
	}
	if err := reg.Register(info); err != nil {
		log.Fatal(err)
	}

	// The system configuration file the compiler reads (Figure 1's
	// output), now including our protocol.
	fmt.Println("system configuration file entry for \"trace\":")
	fmt.Println()
	if err := reg.WriteConfig(os.Stdout); err != nil {
		log.Fatal(err)
	}

	cl, err := ace.NewCluster(ace.Options{Procs: 4, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	err = cl.Run(func(p *ace.Proc) error {
		sp, err := p.NewSpace("trace")
		if err != nil {
			return err
		}
		// Each processor publishes a value; everyone reads all of them
		// across two phases.
		var id ace.RegionID
		id = p.GMalloc(sp, 8)
		ids := make([]ace.RegionID, p.Procs())
		for root := 0; root < p.Procs(); root++ {
			if root == p.ID() {
				ids[root] = p.BroadcastID(root, id)
			} else {
				ids[root] = p.BroadcastID(root, 0)
			}
		}
		for phase := 1; phase <= 2; phase++ {
			mine := p.Map(ids[p.ID()])
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(p.ID()*10+phase))
			p.EndWrite(mine)
			p.Barrier(sp)
			for q := 0; q < p.Procs(); q++ {
				r := p.Map(ids[q])
				p.StartRead(r)
				if got := r.Data.Int64(0); got != int64(q*10+phase) {
					return fmt.Errorf("phase %d: proc %d read %d from %d", phase, p.ID(), got, q)
				}
				p.EndRead(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
			p.Unmap(mine)
		}
		// Report the per-processor protocol statistics the instance
		// collected.
		tp := sp.Proto.(*traceProto)
		fmt.Printf("proc %d: %d reads, %d writes, %d fetches\n",
			p.ID(), tp.reads.Load(), tp.writes.Load(), tp.fetches.Load())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("custom protocol ran correctly")
}
