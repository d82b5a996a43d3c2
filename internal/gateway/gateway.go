// Package gateway is the session front door: a websocket gateway that
// multiplexes large numbers of external client sessions onto spaces.
// Each room maps to one space (created collectively on first join,
// destroyed collectively on last leave — exercising the space
// lifecycle DESIGN.md §14 describes), and client ops are applied
// through brackets by the room's home processor.
//
// Concurrency model. The gateway runs an in-process Ace cluster whose
// application threads execute a command loop instead of an SPMD
// program. A room's ops touch only its home processor: a reader appends
// the op to the room's bounded queue and, if the room was idle, posts a
// drain straight to the home, which serves its ready rooms round-robin,
// one quantum each. A room's traffic enters no collective between its
// create and its destroy. One coordinator goroutine orders what the
// whole cluster sees: joins, leaves, and the collectives (create,
// destroy, stop), pushed to every processor in the same order, as
// NewSpace/FreeSpace demand. It waits for all but destroys: each
// channel is FIFO, so a destroy runs before any later command, and the
// processor that finishes it last counts it. Only session readers file
// requests with the coordinator. Events flow back through each
// session's bounded send queue; a session that keeps it full is closed
// as a slow client.
package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// Config configures a Gateway.
type Config struct {
	// Procs is the cluster size backing the gateway. Default 4.
	Procs int
	// Protocol is the protocol new room spaces start on. Default "sc".
	Protocol string
	// OpQueue bounds each room's pending-op queue. Default 256.
	OpQueue int
	// SendQueue bounds each session's event send queue. Default 64.
	SendQueue int
}

const (
	// quantum is the most ops one drain applies before the room yields
	// to other rooms on the same home processor.
	quantum = 32
	// dropBudget is how many events in a row a session's full send
	// queue may drop before the session is closed as a slow client.
	dropBudget = 64
)

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Protocol == "" {
		c.Protocol = "sc"
	}
	if c.OpQueue <= 0 {
		c.OpQueue = 256
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 64
	}
	return c
}

// ctl command kinds.
const (
	ctlCreate  = iota // collective: NewSpace + room region setup
	ctlDestroy        // collective, not waited for: FreeSpace
	ctlDrain          // home only: the room joins the run queue
	ctlStop           // collective: exit the command loop
)

type ctlCmd struct {
	kind int
	room *room
	done *sync.WaitGroup // waited-for collectives: one Done per processor
}

// roomOp is one client op queued for the room's home processor.
type roomOp struct {
	f    Frame
	sess *session
}

// room is one live room: a space, its state region, its members, and
// its bounded op queue.
type room struct {
	name string
	home int // home processor: applies ops, owns the state region

	// sps holds each processor's handle on the room's space, written by
	// that processor during ctlCreate (disjoint indices) and read only
	// after the create completes.
	sps []*core.Space
	ref core.SpaceRef // generation-tagged id, identical on every proc
	reg *core.Region  // home processor's mapped view of the room state region

	// freeing counts the processors that have yet to finish the room's
	// ctlDestroy; the last one counts the room destroyed.
	freeing atomic.Int32

	mu      sync.Mutex
	members map[*session]struct{}
	ops     []roomOp
	dead    bool

	// queued: posted to the home, on its channel or in its run queue,
	// so the room is there at most once. Guarded by mu.
	queued bool
}

// request kinds from sessions to the coordinator.
const (
	reqJoin = iota
	reqLeave
	reqDisconnect
)

type request struct {
	kind int
	room string
	sess *session
}

// Gateway multiplexes websocket sessions onto room spaces.
type Gateway struct {
	cfg   Config
	cl    *core.Cluster
	stats trace.GateStats

	reqCh chan request
	ctl   []chan ctlCmd

	mu     sync.Mutex
	rooms  map[string]*room
	closed bool

	runDone chan error // cluster Run result
	coDone  chan struct{}
	nextSID atomic.Uint64
}

// New starts a gateway: the backing cluster's processors enter their
// command loops and the coordinator starts. Close shuts it down.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	reg := proto.NewRegistry()
	if _, err := reg.New(cfg.Protocol); err != nil {
		return nil, err
	}
	opts := core.Options{
		Procs:    cfg.Procs,
		Registry: reg,
	}
	cl, err := core.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:     cfg,
		cl:      cl,
		reqCh:   make(chan request, 1024),
		ctl:     make([]chan ctlCmd, cfg.Procs),
		rooms:   make(map[string]*room),
		runDone: make(chan error, 1),
		coDone:  make(chan struct{}),
	}
	for i := range g.ctl {
		g.ctl[i] = make(chan ctlCmd, 256)
	}
	go func() {
		g.runDone <- cl.Run(g.procLoop)
	}()
	go g.coordinator()
	return g, nil
}

// Stats returns the gateway's telemetry.
func (g *Gateway) Stats() *trace.GateStats { return &g.stats }

// SpaceSlots returns the backing space table's length on processor 0 —
// the bound the churn tests watch.
func (g *Gateway) SpaceSlots() int { return g.cl.Local()[0].SpaceSlots() }

// LiveRooms returns the number of live rooms.
func (g *Gateway) LiveRooms() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.rooms)
}

// Close destroys every room, stops the cluster, and waits for it.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return errors.New("gateway: already closed")
	}
	g.closed = true
	g.mu.Unlock()
	close(g.coDone)
	err := <-g.runDone
	g.cl.Close()
	return err
}

// coordinator issues every collective: room lifecycle (create on first
// join, destroy on last leave) and the final stop.
func (g *Gateway) coordinator() {
	for {
		select {
		case <-g.coDone:
			g.shutdown()
			return
		case req := <-g.reqCh:
			g.handleRequest(req)
		}
	}
}

// shutdown destroys all rooms and stops the processor loops.
func (g *Gateway) shutdown() {
	g.mu.Lock()
	rooms := g.rooms
	g.rooms = map[string]*room{}
	g.mu.Unlock()
	for _, rm := range rooms {
		g.destroyRoom(rm)
	}
	g.collective(ctlCmd{kind: ctlStop})
}

// collective pushes cmd to every processor in rank order and waits for
// all of them to execute it.
func (g *Gateway) collective(cmd ctlCmd) {
	var wg sync.WaitGroup
	wg.Add(len(g.ctl))
	cmd.done = &wg
	for _, ch := range g.ctl {
		ch <- cmd
	}
	wg.Wait()
}

func (g *Gateway) handleRequest(req request) {
	switch req.kind {
	case reqJoin:
		g.join(req.sess, req.room)
	case reqLeave:
		g.leave(req.sess, req.room)
	case reqDisconnect:
		for name := range req.sess.joined {
			g.leave(req.sess, name)
		}
		g.stats.SessionsClosed.Add(1)
	}
}

func (g *Gateway) join(s *session, name string) {
	if s.isClosed() {
		return
	}
	g.mu.Lock()
	rm := g.rooms[name]
	g.mu.Unlock()
	if rm == nil {
		rm = g.createRoom(name)
		if rm == nil {
			s.sendFrame(Frame{Kind: EvError, Room: name, Msg: "room create failed"})
			return
		}
	}
	rm.mu.Lock()
	rm.members[s] = struct{}{}
	rm.mu.Unlock()
	s.joined[name] = struct{}{}
	s.sendFrame(Frame{Kind: EvJoined, Room: name, Space: rm.ref.ID, Gen: rm.ref.Gen})
	// Serve the initial state through the normal op path, so it is
	// ordered after every previously applied op.
	g.enqueueOp(rm, roomOp{f: Frame{Kind: OpGet, Room: name}, sess: s})
}

func (g *Gateway) leave(s *session, name string) {
	g.mu.Lock()
	rm := g.rooms[name]
	g.mu.Unlock()
	delete(s.joined, name)
	if rm == nil {
		return
	}
	rm.mu.Lock()
	_, was := rm.members[s]
	delete(rm.members, s)
	empty := len(rm.members) == 0
	rm.mu.Unlock()
	if was {
		s.sendFrame(Frame{Kind: EvLeft, Room: name})
	}
	if empty {
		g.mu.Lock()
		delete(g.rooms, name)
		g.mu.Unlock()
		g.destroyRoom(rm)
	}
}

// createRoom drives the collective space creation for a new room and
// publishes it. Runs on the coordinator, so creations are serialized.
func (g *Gateway) createRoom(name string) *room {
	if len(name) == 0 || len(name) > MaxRoomName {
		return nil
	}
	rm := &room{
		name:    name,
		home:    roomHome(name, g.cfg.Procs),
		sps:     make([]*core.Space, g.cfg.Procs),
		members: make(map[*session]struct{}),
	}
	g.collective(ctlCmd{kind: ctlCreate, room: rm})
	if rm.reg == nil {
		// Create failed after the collective NewSpace; free the orphan
		// spaces so the failure doesn't leak table slots.
		g.destroyRoom(rm)
		return nil
	}
	g.mu.Lock()
	g.rooms[name] = rm
	g.mu.Unlock()
	g.stats.RoomsCreated.Add(1)
	return rm
}

// destroyRoom drops the room's last ops and pushes the collective
// FreeSpace to every processor without waiting for it. The room must
// already be unpublished from g.rooms.
func (g *Gateway) destroyRoom(rm *room) {
	rm.mu.Lock()
	rm.dead = true
	dropped := len(rm.ops)
	rm.ops = nil
	rm.mu.Unlock()
	if dropped > 0 {
		g.stats.OpsDropped.Add(uint64(dropped))
	}
	rm.freeing.Store(int32(len(g.ctl)))
	for _, ch := range g.ctl {
		ch <- ctlCmd{kind: ctlDestroy, room: rm}
	}
}

// enqueueOp appends one client op to the room's bounded queue and, if
// the room was idle, posts a drain to its home. Only a published room
// takes ops, so the drain follows the create. An op from a session that
// is not a member, a full queue or a dead room drops the op; the
// non-member is told why.
func (g *Gateway) enqueueOp(rm *room, op roomOp) {
	rm.mu.Lock()
	_, member := rm.members[op.sess]
	if !member || rm.dead || len(rm.ops) >= g.cfg.OpQueue {
		rm.mu.Unlock()
		g.stats.OpsDropped.Add(1)
		if !member {
			op.sess.sendFrame(Frame{Kind: EvError, Room: rm.name, Msg: "not joined"})
		}
		return
	}
	rm.ops = append(rm.ops, op)
	depth := len(rm.ops)
	post := !rm.queued
	rm.queued = true
	rm.mu.Unlock()
	g.stats.ObserveOpQueue(depth)
	if post {
		select {
		case g.ctl[rm.home] <- ctlCmd{kind: ctlDrain, room: rm}:
		case <-g.coDone:
		}
	}
}

// roomHome maps a room name to its home processor (FNV-1a).
func roomHome(name string, procs int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(procs))
}

// procLoop is each processor's application thread. It runs its command
// stream, whose collectives every processor sees in the same order, and
// between commands serves its ready rooms round-robin: a room with ops
// left goes behind every room that became ready during its quantum.
func (g *Gateway) procLoop(p *core.Proc) error {
	me := p.ID()
	var run []*room // ready rooms homed here, in turn order
	var last *room  // the room just served, if it has ops left
	for {
		var cmd ctlCmd
		select {
		case cmd = <-g.ctl[me]:
		default:
			if last != nil {
				run, last = append(run, last), nil
				continue
			}
			if len(run) > 0 {
				rm := run[0]
				run = run[1:]
				if g.drain(p, rm) {
					last = rm
				}
				continue
			}
			cmd = <-g.ctl[me]
		}
		switch cmd.kind {
		case ctlCreate:
			g.doCreate(p, cmd.room)
			cmd.done.Done()
		case ctlDestroy:
			rm := cmd.room
			if sp := rm.sps[me]; sp != nil {
				if err := p.FreeSpace(sp); err != nil {
					// A failed collective free leaves the cluster wedged;
					// surface it loudly through Run's error.
					return fmt.Errorf("gateway: proc %d: free %q: %w", me, rm.name, err)
				}
				rm.sps[me] = nil
			}
			// A create that failed was never counted, so its cleanup
			// is not counted either.
			if rm.freeing.Add(-1) == 0 && rm.reg != nil {
				g.stats.RoomsDestroyed.Add(1)
			}
		case ctlDrain:
			run = append(run, cmd.room)
		case ctlStop:
			cmd.done.Done()
			return nil
		}
	}
}

// doCreate is the per-processor half of room creation: collective
// NewSpace, then the home allocates the state region (through the
// error-returning allocator — the size is a constant here, but the
// boundary stays panic-free). Only the home ever touches the region, so
// its id is not shared.
func (g *Gateway) doCreate(p *core.Proc, rm *room) {
	me := p.ID()
	sp, err := p.NewSpace(g.cfg.Protocol)
	if err != nil {
		return // collective mismatch: Run is about to fail anyway
	}
	rm.sps[me] = sp // recorded before any failure so cleanup can free it
	if me != rm.home {
		return
	}
	id, err := p.GMallocE(sp, RoomStateBytes)
	if err != nil {
		return // rm.reg stays nil and create fails
	}
	rm.ref = sp.Ref()
	rm.reg = p.Map(id)
}

// drain applies up to one quantum of the room's queued ops through
// brackets on the home processor, broadcasting deltas to members, and
// reports whether ops remain; if none do, the room is no longer queued.
// The space is resolved through its generation-tagged ref: a drain
// racing a destroy observes the stale ref and drops the batch instead
// of touching the slot's next occupant.
func (g *Gateway) drain(p *core.Proc, rm *room) bool {
	rm.mu.Lock()
	n := min(len(rm.ops), quantum)
	batch := rm.ops[:n:n]
	rm.ops = rm.ops[n:]
	rm.mu.Unlock()
	if _, err := p.SpaceByRef(rm.ref); err != nil {
		g.stats.StaleSpaceRefs.Add(uint64(n))
		g.stats.OpsDropped.Add(uint64(n))
		batch = nil
	}
	r := rm.reg
	for _, op := range batch {
		switch op.f.Kind {
		case OpSet, OpAdd:
			p.StartWrite(r)
			v := op.f.Value
			if op.f.Kind == OpAdd {
				v += r.Data.Int64(op.f.Cell)
			}
			r.Data.SetInt64(op.f.Cell, v)
			p.EndWrite(r)
			g.stats.OpsApplied.Add(1)
			g.broadcast(rm, Frame{Kind: EvDelta, Room: rm.name, Cell: op.f.Cell, Value: v})
		case OpGet:
			state := make([]int64, RoomCells)
			p.StartRead(r)
			for i := range state {
				state[i] = r.Data.Int64(i)
			}
			p.EndRead(r)
			g.stats.OpsApplied.Add(1)
			op.sess.sendFrame(Frame{Kind: EvState, Room: rm.name, State: state})
		default:
			g.stats.OpsDropped.Add(1)
		}
	}
	rm.mu.Lock()
	more := !rm.dead && len(rm.ops) > 0
	rm.queued = more
	rm.mu.Unlock()
	return more
}

// broadcast sends an event to every member through its bounded send
// queue (a full queue drops the event for that session alone).
func (g *Gateway) broadcast(rm *room, f Frame) {
	buf, err := EncodeFrame(f)
	if err != nil {
		return
	}
	g.stats.Broadcasts.Add(1)
	rm.mu.Lock()
	members := make([]*session, 0, len(rm.members))
	for s := range rm.members {
		members = append(members, s)
	}
	rm.mu.Unlock()
	for _, s := range members {
		s.send(buf)
	}
}
