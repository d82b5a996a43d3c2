package gateway

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/core"
)

// startGateway spins up a gateway and a loopback server for it.
func startGateway(t *testing.T, cfg Config) (*Gateway, *Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		t.Fatalf("listen: %v", err)
	}
	srv := g.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		if err := g.Close(); err != nil {
			t.Errorf("gateway close: %v", err)
		}
	})
	return g, srv
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return c
}

// waitFor polls cond for up to 5s — for effects that trail the wire
// protocol (room teardown runs after the leave event is sent).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestWireRoundTrip(t *testing.T) {
	state := make([]int64, RoomCells)
	for i := range state {
		state[i] = int64(i * 31)
	}
	frames := []Frame{
		{Kind: OpJoin, Room: "lobby"},
		{Kind: OpLeave, Room: "lobby"},
		{Kind: OpSet, Room: "a", Cell: 7, Value: -12345},
		{Kind: OpAdd, Room: "b", Cell: 63, Value: 1 << 40},
		{Kind: OpGet, Room: "c"},
		{Kind: EvJoined, Room: "d", Space: 9, Gen: 4},
		{Kind: EvLeft, Room: "d"},
		{Kind: EvDelta, Room: "e", Cell: 0, Value: 1},
		{Kind: EvState, Room: "f", State: state},
		{Kind: EvError, Room: "g", Msg: "nope"},
	}
	for _, f := range frames {
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %#x: %v", f.Kind, err)
		}
		got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %#x: %v", f.Kind, err)
		}
		if got.Kind != f.Kind || got.Room != f.Room || got.Cell != f.Cell ||
			got.Value != f.Value || got.Space != f.Space || got.Gen != f.Gen || got.Msg != f.Msg {
			t.Fatalf("roundtrip %#x: got %+v, want %+v", f.Kind, got, f)
		}
		for i := range f.State {
			if got.State[i] != f.State[i] {
				t.Fatalf("roundtrip state[%d]: %d != %d", i, got.State[i], f.State[i])
			}
		}
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{OpJoin},
		{OpJoin, 5, 'a'},                       // truncated room
		{0x00, 0},                              // unknown kind
		{0xFF, 0},                              // unknown kind
		{OpJoin, 0, 1, 2, 3},                   // trailing bytes
		{OpSet, 0, 9},                          // short body
		{OpSet, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0}, // cell out of range
		{EvJoined, 0, 1, 2, 3},                 // short EvJoined
		append([]byte{EvState, 0}, make([]byte, 8)...), // short state
	}
	for i, buf := range cases {
		if _, err := DecodeFrame(buf); !errors.Is(err, ErrBadFrame) {
			t.Errorf("case %d (% x): err=%v, want ErrBadFrame", i, buf, err)
		}
	}
}

// TestJoinApplyLeave is the end-to-end happy path: join creates the
// room space, ops apply through brackets, the last leave destroys it
// and the table slot is recycled.
func TestJoinApplyLeave(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 2})
	c := dial(t, srv)
	defer c.Close()

	slots := g.SpaceSlots()
	if _, _, err := c.Join("alpha"); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := g.LiveRooms(); got != 1 {
		t.Fatalf("live rooms %d, want 1", got)
	}
	for i := int64(1); i <= 10; i++ {
		if err := c.Add("alpha", 3, i); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := c.Set("alpha", 5, 42); err != nil {
		t.Fatalf("set: %v", err)
	}
	state, err := c.Get("alpha")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if state[3] != 55 || state[5] != 42 {
		t.Fatalf("state[3]=%d state[5]=%d, want 55 and 42", state[3], state[5])
	}
	if err := c.Leave("alpha"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	// The room unpublishes before the collective FreeSpace completes and
	// bumps RoomsDestroyed, so wait on the counter too.
	waitFor(t, "room destroy", func() bool {
		return g.LiveRooms() == 0 && g.Stats().Snapshot().RoomsDestroyed == 1
	})
	if got := g.SpaceSlots(); got > slots+1 {
		t.Fatalf("space table grew %d -> %d after one room's lifetime", slots, got)
	}
	if s := g.Stats().Snapshot(); s.RoomsCreated != 1 {
		t.Fatalf("rooms created %d, want 1", s.RoomsCreated)
	}
}

// TestUnknownProtocolRefused: New refuses a protocol its registry does
// not know, with the registry's error, instead of starting a gateway
// whose every join fails. A create that does fail after the collective
// NewSpace — forced here by renaming the protocol before serving — is
// reported to the client and cleaned up, but counted neither created
// nor destroyed.
func TestUnknownProtocolRefused(t *testing.T) {
	if g, err := New(Config{Procs: 2, Protocol: "nope"}); err == nil {
		g.Close()
		t.Fatal("New accepted an unknown protocol")
	} else if !strings.Contains(err.Error(), `unknown protocol "nope"`) {
		t.Fatalf("New: %v, want the registry's unknown-protocol error", err)
	}

	g, err := New(Config{Procs: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g.cfg.Protocol = "nope"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		t.Fatalf("listen: %v", err)
	}
	srv := g.Serve(ln)
	c := dial(t, srv)
	if _, _, err := c.Join("alpha"); err == nil || !strings.Contains(err.Error(), "room create failed") {
		t.Errorf("join on a failing create: %v, want room create failed", err)
	}
	c.Close()
	srv.Close()
	if err := g.Close(); err != nil {
		t.Fatalf("gateway close: %v", err)
	}
	// Close has drained every processor's command stream, the failed
	// create's cleanup included.
	if s := g.Stats().Snapshot(); s.RoomsCreated != 0 || s.RoomsDestroyed != 0 {
		t.Fatalf("rooms created %d destroyed %d after a failed create, want 0 and 0", s.RoomsCreated, s.RoomsDestroyed)
	}
}

// TestRoomCreateCostsOneRound: creating a room costs exactly the one
// verifying round of its collective NewSpace (counted once per
// processor, as a reduce) and no other collective round — the home
// allocates the room's region and nobody else needs its id.
func TestRoomCreateCostsOneRound(t *testing.T) {
	const procs = 3
	g, srv := startGateway(t, Config{Procs: procs})
	c := dial(t, srv)
	defer c.Close()
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("room-%d", i)
		before := g.cl.Metrics().Coll
		if _, _, err := c.Join(name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		after := g.cl.Metrics().Coll
		if d := after.Reduces - before.Reduces; d != procs {
			t.Errorf("%s: creation took %d reduce participations, want %d (one round)", name, d, procs)
		}
		if d := after.Barriers + after.Bcasts - before.Barriers - before.Bcasts; d != 0 {
			t.Errorf("%s: creation took %d barrier or broadcast participations, want 0", name, d)
		}
	}
}

// TestRoomOpsEnterNoCollective: between a room's create and its
// destroy, its ops touch only the home processor. Forty-eight adds, one
// drain each, enter no barrier, reduction or broadcast anywhere in the
// cluster.
func TestRoomOpsEnterNoCollective(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 3})
	c := dial(t, srv)
	defer c.Close()
	if _, _, err := c.Join("quiet"); err != nil {
		t.Fatalf("join: %v", err)
	}
	before := g.cl.Metrics().Coll
	for i := 0; i < 48; i++ {
		if err := c.Add("quiet", 0, 1); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if _, err := c.WaitFor(EvDelta, "quiet"); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	after := g.cl.Metrics().Coll
	if after.Barriers != before.Barriers || after.Reduces != before.Reduces || after.Bcasts != before.Bcasts {
		t.Fatalf("48 adds took %d barrier, %d reduce and %d broadcast participations, want none",
			after.Barriers-before.Barriers, after.Reduces-before.Reduces, after.Bcasts-before.Bcasts)
	}
}

// TestBroadcastDeltas: a second member of the room observes the
// writer's deltas.
func TestBroadcastDeltas(t *testing.T) {
	_, srv := startGateway(t, Config{Procs: 2})
	writer, watcher := dial(t, srv), dial(t, srv)
	defer writer.Close()
	defer watcher.Close()

	if _, _, err := writer.Join("r"); err != nil {
		t.Fatalf("writer join: %v", err)
	}
	if _, _, err := watcher.Join("r"); err != nil {
		t.Fatalf("watcher join: %v", err)
	}
	if err := writer.Add("r", 1, 5); err != nil {
		t.Fatalf("add: %v", err)
	}
	f, err := watcher.WaitFor(EvDelta, "r")
	if err != nil {
		t.Fatalf("watcher delta: %v", err)
	}
	if f.Cell != 1 || f.Value != 5 {
		t.Fatalf("delta cell %d value %d, want 1/5", f.Cell, f.Value)
	}
}

// TestOpsFromNonMemberDropped: a session that never joined a room may
// not write it or read it. Its ops are dropped, counted, and answered
// with EvError, and the members' state is untouched.
func TestOpsFromNonMemberDropped(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 2})
	member, outsider := dial(t, srv), dial(t, srv)
	defer member.Close()
	defer outsider.Close()

	if _, _, err := member.Join("r"); err != nil {
		t.Fatalf("member join: %v", err)
	}
	dropped := g.Stats().Snapshot().OpsDropped
	if err := outsider.Set("r", 2, 99); err != nil {
		t.Fatalf("outsider set: %v", err)
	}
	if err := outsider.Send(Frame{Kind: OpGet, Room: "r"}); err != nil {
		t.Fatalf("outsider get: %v", err)
	}
	for i := 0; i < 2; i++ {
		f, err := outsider.Recv()
		if err != nil {
			t.Fatalf("outsider recv %d: %v", i, err)
		}
		if f.Kind != EvError || f.Room != "r" || f.Msg != "not joined" {
			t.Fatalf("outsider op %d answered with %+v, want EvError \"not joined\"", i, f)
		}
	}
	state, err := member.Get("r")
	if err != nil {
		t.Fatalf("member get: %v", err)
	}
	if state[2] != 0 {
		t.Fatalf("member reads cell 2 = %d, written by a session outside the room", state[2])
	}
	if got := g.Stats().Snapshot().OpsDropped - dropped; got != 2 {
		t.Fatalf("OpsDropped grew by %d, want 2", got)
	}
}

// TestRoomChurnBounded is the gateway-level churn test: rooms created
// and destroyed in waves leave the space table bounded by the wave
// width, and the generation of a recycled slot advances.
func TestRoomChurnBounded(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 3})
	c := dial(t, srv)
	defer c.Close()

	const waves, width = 6, 5
	base := g.SpaceSlots()
	gens := map[string]uint64{}
	for w := 0; w < waves; w++ {
		names := make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("room-%d", i)
			if _, gen, err := c.Join(names[i]); err != nil {
				t.Fatalf("wave %d join %s: %v", w, names[i], err)
			} else if w > 0 && gen <= gens[names[i]] {
				t.Fatalf("wave %d: %s generation %d did not advance past %d", w, names[i], gen, gens[names[i]])
			} else {
				gens[names[i]] = gen
			}
			if err := c.Add(names[i], 0, int64(w)); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		for _, name := range names {
			if err := c.Leave(name); err != nil {
				t.Fatalf("wave %d leave %s: %v", w, name, err)
			}
		}
		// Rooms unpublish before the collective FreeSpace completes and
		// bumps the counter, so wait on the counter, not just LiveRooms.
		wantDestroyed := uint64((w + 1) * width)
		waitFor(t, "wave teardown", func() bool {
			return g.LiveRooms() == 0 && g.Stats().Snapshot().RoomsDestroyed == wantDestroyed
		})
		if got := g.SpaceSlots(); got > base+width {
			t.Fatalf("wave %d: table at %d slots (base %d, width %d) — leak", w, got, base, width)
		}
	}
	s := g.Stats().Snapshot()
	if s.RoomsCreated != waves*width || s.RoomsDestroyed != waves*width {
		t.Fatalf("rooms created %d destroyed %d, want %d", s.RoomsCreated, s.RoomsDestroyed, waves*width)
	}
}

// TestLeaveRejoinFreshSpace: the coordinator does not wait for a
// destroy, so a create can be queued right behind it. A client leaves a
// room as its last member and at once re-joins the same name, and joins
// a new room as well. Each join must get a fresh space — a recycled
// slot under a generation above any that slot has had, with zero state
// — the table must stay bounded, and after Close every created room
// must have been destroyed.
func TestLeaveRejoinFreshSpace(t *testing.T) {
	g, err := New(Config{Procs: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		t.Fatalf("listen: %v", err)
	}
	srv := g.Serve(ln)
	c := dial(t, srv)

	base := g.SpaceSlots()
	gens := map[int]uint64{} // highest generation seen per slot
	// join joins name, checks its space is fresh, and reports whether
	// the space took a slot an earlier room had used.
	join := func(name string) (recycled bool) {
		t.Helper()
		space, gen, err := c.Join(name)
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		last, recycled := gens[space]
		if recycled && gen <= last {
			t.Fatalf("join %s: slot %d at generation %d, not above %d", name, space, gen, last)
		}
		gens[space] = gen
		state, err := c.Get(name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		for i, v := range state {
			if v != 0 {
				t.Fatalf("join %s: fresh space has cell %d = %d", name, i, v)
			}
		}
		return recycled
	}
	join("same")
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := c.Add("same", i%RoomCells, int64(i+1)); err != nil {
			t.Fatalf("add: %v", err)
		}
		if state, err := c.Get("same"); err != nil || state[i%RoomCells] != int64(i+1) {
			t.Fatalf("round %d: get after add: %v, %v", i, state, err)
		}
		if err := c.Leave("same"); err != nil {
			t.Fatalf("round %d leave: %v", i, err)
		}
		if !join("same") {
			t.Fatalf("round %d: re-join took a fresh slot, not the one just freed", i)
		}
		name := fmt.Sprintf("new-%d", i)
		join(name)
		if err := c.Leave(name); err != nil {
			t.Fatalf("round %d leave %s: %v", i, name, err)
		}
		if got := g.SpaceSlots(); got > base+2 {
			t.Fatalf("round %d: table at %d slots (base %d) — leak", i, got, base)
		}
	}
	c.Close()
	srv.Close()
	if err := g.Close(); err != nil {
		t.Fatalf("gateway close: %v", err)
	}
	s := g.Stats().Snapshot()
	if want := uint64(2*rounds + 1); s.RoomsCreated != want || s.RoomsDestroyed != want {
		t.Fatalf("rooms created %d destroyed %d, want %d each", s.RoomsCreated, s.RoomsDestroyed, want)
	}
}

// TestStaleRefRejected: a destroyed room's generation-tagged ref must
// refuse to resolve even after the slot is recycled by a new room.
func TestStaleRefRejected(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 2})
	c := dial(t, srv)
	defer c.Close()

	space, gen, err := c.Join("old")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	stale := core.SpaceRef{ID: space, Gen: gen}
	if err := c.Leave("old"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	waitFor(t, "destroy", func() bool { return g.LiveRooms() == 0 })

	space2, gen2, err := c.Join("new")
	if err != nil {
		t.Fatalf("join new: %v", err)
	}
	if space2 != space {
		t.Fatalf("slot %d not recycled: new room got %d", space, space2)
	}
	if gen2 <= gen {
		t.Fatalf("generation did not advance: %d -> %d", gen, gen2)
	}
	p := g.cl.Local()[0]
	if _, err := p.SpaceByRef(stale); !errors.Is(err, core.ErrStaleSpace) {
		t.Fatalf("stale ref resolved: err=%v", err)
	}
}

// TestMalformedFramesNoPanic hammers the decode boundary over a live
// connection: every malformed payload answers with EvError (or is
// survived), the connection keeps working, and nothing panics.
func TestMalformedFramesNoPanic(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 2})
	c := dial(t, srv)
	defer c.Close()

	bad := [][]byte{
		{},
		{0x00},
		{0xFF, 0xFF},
		{OpJoin, 200},
		{OpSet, 0, 64, 1, 2, 3, 4, 5, 6, 7, 8},
		{EvDelta, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, // server kind from a client
		make([]byte, 300),
	}
	for i, payload := range bad {
		if err := c.SendRaw(payload); err != nil {
			t.Fatalf("send raw %d: %v", i, err)
		}
		if _, err := c.WaitFor(EvError, ""); err != nil {
			t.Fatalf("bad frame %d: no error event: %v", i, err)
		}
	}
	// The session survived all of it: a normal op still works.
	if _, _, err := c.Join("after"); err != nil {
		t.Fatalf("join after malformed frames: %v", err)
	}
	if s := g.Stats().Snapshot(); s.BadFrames < uint64(len(bad)) {
		t.Fatalf("BadFrames %d, want >= %d", s.BadFrames, len(bad))
	}
}

// TestSlowClientDropBudget: events to a member that never reads are
// dropped and counted; past the drop budget the session is closed
// instead of stalling the room's broadcasts.
func TestSlowClientDropBudget(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 2, SendQueue: 2})
	writer, slow := dial(t, srv), dial(t, srv)
	defer writer.Close()
	defer slow.Close()

	if _, _, err := writer.Join("s"); err != nil {
		t.Fatalf("writer join: %v", err)
	}
	if _, _, err := slow.Join("s"); err != nil {
		t.Fatalf("slow join: %v", err)
	}
	// The slow client stops reading; the writer floods broadcasts. The
	// writer doesn't read its own deltas either, so with a cap-2 queue
	// it may exhaust its own drop budget and be closed — the flood has
	// done its job then. A 14-byte delta takes thousands to fill a
	// non-reader's socket buffers, and only then does its queue stay
	// full for dropBudget events in a row, so the flood runs until a
	// session is closed rather than for a fixed count.
	for i := 0; i < 1<<17 && g.Stats().SlowClients.Load() == 0; i++ {
		if err := writer.Add("s", 0, 1); err != nil {
			break
		}
	}
	waitFor(t, "drop budget exhaustion", func() bool {
		s := g.Stats().Snapshot()
		return s.SendQueueDrops > 0 && s.SlowClients >= 1
	})
}

// TestConcurrentSessionsChurn runs many sessions joining, writing and
// leaving overlapping rooms concurrently — the -race workout for the
// coordinator, the home processors' run queues, and the session queues.
func TestConcurrentSessionsChurn(t *testing.T) {
	g, srv := startGateway(t, Config{Procs: 3})
	const sessions, rounds, rooms = 12, 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialClient(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(60 * time.Second))
			for r := 0; r < rounds; r++ {
				room := fmt.Sprintf("churn-%d", (id+r)%rooms)
				if _, _, err := c.Join(room); err != nil {
					errs <- fmt.Errorf("session %d join %s: %w", id, room, err)
					return
				}
				cell := id % RoomCells
				for k := 0; k < 10; k++ {
					if err := c.Add(room, cell, 1); err != nil {
						errs <- err
						return
					}
				}
				if _, err := c.Get(room); err != nil {
					errs <- fmt.Errorf("session %d get %s: %w", id, room, err)
					return
				}
				if err := c.Leave(room); err != nil {
					errs <- fmt.Errorf("session %d leave %s: %w", id, room, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "teardown", func() bool { return g.LiveRooms() == 0 })
	if slots := g.SpaceSlots(); slots > 1+rooms {
		t.Fatalf("space table at %d slots after churn (max %d rooms live)", slots, rooms)
	}
}

// TestHomeRoundRobin: rooms that share a home processor take turns, one
// quantum each. A busy room with more than two quanta of ops and a quiet
// room with one op are posted to the home together; the quiet room's op
// must be applied before the busy room's queue empties. One client in
// both rooms sees the home's apply order in its event stream.
func TestHomeRoundRobin(t *testing.T) {
	const procs, busyOps = 2, 3 * quantum
	g, srv := startGateway(t, Config{Procs: procs, SendQueue: 4 * busyOps})
	c := dial(t, srv)
	defer c.Close()
	busyName, quietName := "busy", ""
	for i := 0; quietName == ""; i++ {
		if name := fmt.Sprintf("quiet-%d", i); roomHome(name, procs) == roomHome(busyName, procs) {
			quietName = name
		}
	}
	rooms := make([]*room, 2)
	for i, name := range []string{busyName, quietName} {
		if _, _, err := c.Join(name); err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		g.mu.Lock()
		rm := g.rooms[name]
		g.mu.Unlock()
		waitFor(t, name+" idle", func() bool {
			rm.mu.Lock()
			defer rm.mu.Unlock()
			return !rm.queued
		})
		rooms[i] = rm
	}
	busy, quiet := rooms[0], rooms[1]

	// Queue both rooms' ops by hand and post both drains while holding
	// the busy room's lock, so the home cannot start on the busy room
	// before the quiet one is on its channel.
	busy.mu.Lock()
	for v := 1; v <= busyOps; v++ {
		busy.ops = append(busy.ops, roomOp{f: Frame{Kind: OpSet, Room: busyName, Value: int64(v)}})
	}
	busy.queued = true
	quiet.mu.Lock()
	quiet.ops = append(quiet.ops, roomOp{f: Frame{Kind: OpSet, Room: quietName, Value: 1}})
	quiet.queued = true
	quiet.mu.Unlock()
	g.ctl[busy.home] <- ctlCmd{kind: ctlDrain, room: busy}
	g.ctl[busy.home] <- ctlCmd{kind: ctlDrain, room: quiet}
	busy.mu.Unlock()

	busyDone, quietAt := 0, -1
	for busyDone < busyOps || quietAt < 0 {
		f, err := c.WaitFor(EvDelta, "")
		if err != nil {
			t.Fatalf("delta: %v", err)
		}
		if f.Room == quietName {
			quietAt = busyDone
		} else {
			busyDone++
		}
	}
	if quietAt >= busyOps {
		t.Fatalf("quiet room applied after all %d busy ops: the busy room drained to empty in one turn", busyOps)
	}
}
