// Command acegate serves external websocket clients from an Ace
// cluster: each room maps to one space, created collectively on the
// first join and destroyed collectively on the last leave, with client
// ops applied through brackets by the room's home processor
// (DESIGN.md §14).
//
// Serve a gateway on :8642 with 4 processors, each room's space on the
// update protocol:
//
//	acegate -addr :8642 -procs 4 -protocol update
//
// The -probe mode is the scripted counterpart used by `make
// gate-smoke`: it connects -clients sessions to a running gateway,
// spreads them over -rooms rooms, has each add a known value to its
// own cell, and then checks that every member of a room reads the same
// final state with the expected sums — checksum parity across
// sessions. Exit 0 on parity, 1 on any mismatch or error.
//
//	acegate -probe -addr 127.0.0.1:8642 -clients 12 -rooms 3
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/acedsm/ace/internal/gateway"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8642", "listen address (serve) or gateway address (probe)")
		procs    = flag.Int("procs", 4, "processors backing the gateway cluster")
		protocol = flag.String("protocol", "sc", "protocol new room spaces start on")
		sendq    = flag.Int("sendq", 64, "per-session send queue bound")
		opq      = flag.Int("opq", 256, "per-room op queue bound")
		probe    = flag.Bool("probe", false, "run as a scripted probe client against -addr")
		clients  = flag.Int("clients", 8, "probe: concurrent client sessions")
		rooms    = flag.Int("rooms", 2, "probe: rooms to spread the sessions over")
		adds     = flag.Int("adds", 16, "probe: adds per session to its own cell")
	)
	flag.Parse()

	if *probe {
		if err := runProbe(*addr, *clients, *rooms, *adds); err != nil {
			fmt.Fprintln(os.Stderr, "acegate probe:", err)
			os.Exit(1)
		}
		return
	}

	cfg := gateway.Config{
		Procs:     *procs,
		Protocol:  *protocol,
		OpQueue:   *opq,
		SendQueue: *sendq,
	}
	g, err := gateway.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acegate:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acegate:", err)
		os.Exit(1)
	}
	srv := g.Serve(ln)
	fmt.Printf("acegate: serving ws on %s (procs=%d protocol=%s)\n",
		srv.Addr(), *procs, *protocol)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	if err := g.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "acegate: shutdown:", err)
		os.Exit(1)
	}
	s := g.Stats().Snapshot()
	fmt.Printf("acegate: sessions=%d rooms=%d/%d ops=%d dropped=%d bad_frames=%d slow_clients=%d\n",
		s.SessionsOpened, s.RoomsCreated, s.RoomsDestroyed, s.OpsApplied, s.OpsDropped, s.BadFrames, s.SlowClients)
}

// runProbe is the scripted parity check: every session adds a known
// value to its own cell, then all sessions in a room must agree on the
// final state, whose per-cell sums are computable in closed form.
func runProbe(addr string, clients, rooms, adds int) error {
	if rooms <= 0 || clients < rooms {
		return fmt.Errorf("need at least one client per room (clients=%d rooms=%d)", clients, rooms)
	}
	probeClients = clients
	type result struct {
		id    int
		state []int64
		err   error
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			state, err := probeSession(addr, id, rooms, adds)
			results <- result{id: id, state: state, err: err}
		}(i)
	}
	// Expected per-room state: each member of room r adds (id+1) to cell
	// id%RoomCells, adds times.
	want := make([][]int64, rooms)
	for r := range want {
		want[r] = make([]int64, gateway.RoomCells)
	}
	for id := 0; id < clients; id++ {
		want[id%rooms][id%gateway.RoomCells] += int64(adds) * int64(id+1)
	}
	var failed int
	for i := 0; i < clients; i++ {
		res := <-results
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "client %d: %v\n", res.id, res.err)
			failed++
			continue
		}
		r := res.id % rooms
		if got, exp := gateway.Checksum(res.state), gateway.Checksum(want[r]); got != exp {
			fmt.Fprintf(os.Stderr, "client %d room %d: checksum %#x, want %#x\n", res.id, r, got, exp)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d clients failed parity", failed, clients)
	}
	fmt.Printf("acegate probe: %d clients over %d rooms, checksum parity ok\n", clients, rooms)
	return nil
}

func probeSession(addr string, id, rooms, adds int) ([]int64, error) {
	c, err := gateway.DialClient(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second))
	room := fmt.Sprintf("probe-%d", id%rooms)
	if _, _, err := c.Join(room); err != nil {
		return nil, fmt.Errorf("join %s: %w", room, err)
	}
	cell := id % gateway.RoomCells
	for k := 0; k < adds; k++ {
		if err := c.Add(room, cell, int64(id+1)); err != nil {
			return nil, err
		}
	}
	// Poll until the whole room's state matches the closed form — Get is
	// ordered after all applied ops, so this converges as the other
	// members' adds land.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		state, err := c.Get(room)
		if err != nil {
			return nil, err
		}
		if complete(state, id, rooms, adds) {
			if err := c.Leave(room); err != nil {
				return nil, err
			}
			return state, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("room %s never converged", room)
}

// complete reports whether the room state already reflects every
// member's adds (the closed-form expected sums for this room).
func complete(state []int64, id, rooms, adds int) bool {
	want := make([]int64, gateway.RoomCells)
	// Recompute this room's expectation from the global parameters the
	// probe was launched with (all clients use the same flags).
	r := id % rooms
	for other := r; ; other += rooms {
		if other >= probeClients {
			break
		}
		want[other%gateway.RoomCells] += int64(adds) * int64(other+1)
	}
	for i := range state {
		if state[i] != want[i] {
			return false
		}
	}
	return true
}

// probeClients is set from -clients before sessions start (read-only
// afterwards).
var probeClients int
