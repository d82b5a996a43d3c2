// Package gossip implements the membership and failure-detection layer
// for multi-process Ace clusters: a Cassandra-style anti-entropy
// protocol (SYN → ACK → ACK2) with per-node heartbeat versions and a
// silence timeout.
//
// Every node periodically picks a few peers and exchanges digests of
// everything it knows: (node, generation, version) triples. The peer
// replies with the states it has newer versions of and a request list
// for the states it is behind on; a final ACK2 delivers those. A node's
// generation is fixed at startup (a restart gets a fresh, larger one)
// and its version is a heartbeat counter it increments every round, so
// "newer" is well defined across restarts: higher generation wins, then
// higher version. Rumors spread epidemically — with fanout f, a new
// state reaches all n nodes in O(log_f n) rounds.
//
// Each node state carries the node's gossip address (so learned nodes
// become gossip targets) and Meta, an opaque string its owner supplies
// and every member learns. The layer never reads Meta; ace.Join puts
// its data-plane claims there.
//
// Failure detection is one bit per peer: a node is alive until its
// heartbeat has not advanced for DeadAfter, and then dead (the OnDead
// callback feeds the transport's peer-down path). Only a higher
// generation revives a dead node.
//
// The Agent is a pure state machine: it never starts goroutines, reads
// clocks, or touches sockets. Time enters through the explicit now
// arguments of Tick and Handle, randomness through the seeded Config,
// and packets leave through the send callback — which makes every test
// deterministic and lets the daemon choose its own transport (see
// UDPTransport) and tick cadence.
package gossip

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// fanout is how many peers each Tick gossips to.
const fanout = 3

// Status is a node's liveness as judged by the local failure detector.
type Status uint8

const (
	// Alive: heartbeat advanced within DeadAfter.
	Alive Status = iota
	// Dead: no heartbeat progress for DeadAfter; surfaced through
	// OnDead. Only a higher generation (a restart) revives it.
	Dead
)

func (s Status) String() string {
	if s == Dead {
		return "dead"
	}
	return "alive"
}

// Config parameterizes an Agent.
type Config struct {
	// ID is this node's id, in [0, Nodes).
	ID int
	// Nodes is the expected cluster size.
	Nodes int
	// Generation distinguishes incarnations of the same id; a restart
	// must supply a larger value (wall-clock start time works). Zero
	// gets 1.
	Generation uint64
	// Seed seeds the peer-selection RNG; runs with equal seeds and
	// equal packet orders make identical choices.
	Seed int64
	// DeadAfter is the failure detector's threshold: a node whose
	// heartbeat has not advanced for this long is dead. Default 10s.
	DeadAfter time.Duration
	// GossipAddr is where peers gossip to this node; Meta is the opaque
	// payload it advertises with its state.
	GossipAddr string
	Meta       string
	// Seeds are gossip addresses to contact before any peers are
	// known — at least one (that is not this node's own) is needed to
	// join a cluster of strangers.
	Seeds []string

	// OnDead fires when a node is declared dead. OnResurrect fires
	// when a known node reappears with a higher generation — a
	// restarted process, whether or not the detector had declared the
	// old incarnation dead yet (a generation bump is proof positive the
	// previous incarnation is gone). Both run synchronously inside Tick
	// or Handle, at most once per transition, and must not call back
	// into the Agent.
	OnDead      func(node int)
	OnResurrect func(node int)
}

func (c Config) withDefaults() Config {
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * time.Second
	}
	if c.Generation == 0 {
		c.Generation = 1
	}
	return c
}

// NodeState is one node's gossiped state: the (Gen, Ver) heartbeat pair
// that orders rumors, the gossip address, the owner's opaque Meta, and
// the local detector's verdict.
type NodeState struct {
	Node       int    `json:"node"`
	Gen        uint64 `json:"gen"`
	Ver        uint64 `json:"ver"`
	GossipAddr string `json:"gossip_addr"`
	Meta       string `json:"meta"`
	Status     Status `json:"-"`
}

// newer reports whether s supersedes o: higher generation, or same
// generation and higher version.
func (s NodeState) newer(o NodeState) bool {
	if s.Gen != o.Gen {
		return s.Gen > o.Gen
	}
	return s.Ver > o.Ver
}

type digest struct {
	Node int    `json:"node"`
	Gen  uint64 `json:"gen"`
	Ver  uint64 `json:"ver"`
}

// packet kinds: the three phases of one anti-entropy exchange.
const (
	kindSyn  = 1 // digests of everything the sender knows
	kindAck  = 2 // states newer than the digests + request list
	kindAck2 = 3 // the requested states
)

type packet struct {
	Kind    int         `json:"kind"`
	From    int         `json:"from"`
	Digests []digest    `json:"digests,omitempty"`
	States  []NodeState `json:"states,omitempty"`
	Want    []int       `json:"want,omitempty"`
}

// Agent is one node's gossip state machine. Methods are safe for
// concurrent use; callbacks run under the Agent's lock.
type Agent struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	send  func(addr string, pkt []byte)
	peers map[int]*peerState // every node id ever heard of, incl. self
}

type peerState struct {
	NodeState
	// heard is the last instant the node's heartbeat advanced (for
	// self: always fresh).
	heard time.Time
}

// New builds an Agent. send transmits one encoded packet to a peer's
// gossip address; it may drop, delay or duplicate (the protocol is
// idempotent) and must not call back into the Agent synchronously with
// a Handle of its own delivery.
func New(cfg Config, send func(addr string, pkt []byte)) (*Agent, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 || cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("gossip: node %d of %d out of range", cfg.ID, cfg.Nodes)
	}
	a := &Agent{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		send:  send,
		peers: make(map[int]*peerState),
	}
	a.peers[cfg.ID] = &peerState{NodeState: NodeState{
		Node:       cfg.ID,
		Gen:        cfg.Generation,
		Ver:        1,
		GossipAddr: cfg.GossipAddr,
		Meta:       cfg.Meta,
	}}
	return a, nil
}

// ID returns this agent's node id.
func (a *Agent) ID() int { return a.cfg.ID }

// Tick advances one gossip round: the local heartbeat increments, the
// failure detector re-judges every known peer, and a SYN goes out to
// fanout targets chosen from the known gossip addresses (falling back
// to the configured Seeds while strangers remain).
func (a *Agent) Tick(now time.Time) {
	a.mu.Lock()
	self := a.peers[a.cfg.ID]
	self.Ver++
	self.heard = now

	a.judgeLocked(now)

	targets := a.targetsLocked()
	// The SYN carries the sender's own full state besides the digests:
	// a receiver that has never heard of the sender (first contact
	// through a seed) needs its gossip address to reply at all.
	syn, _ := json.Marshal(packet{
		Kind:    kindSyn,
		From:    a.cfg.ID,
		Digests: a.digestsLocked(),
		States:  []NodeState{self.NodeState},
	})
	a.mu.Unlock()

	for _, addr := range targets {
		a.send(addr, syn)
	}
}

// judgeLocked declares dead every live peer silent for DeadAfter.
func (a *Agent) judgeLocked(now time.Time) {
	for id, ps := range a.peers {
		if id == a.cfg.ID || ps.Status == Dead || now.Sub(ps.heard) < a.cfg.DeadAfter {
			continue
		}
		ps.Status = Dead
		if a.cfg.OnDead != nil {
			a.cfg.OnDead(id)
		}
	}
}

// targetsLocked picks fanout distinct gossip targets: known live peers
// first, and while any expected node is still unknown, the seed
// addresses too (so a cold cluster can bootstrap from one seed).
func (a *Agent) targetsLocked() []string {
	var pool []string
	seen := map[string]bool{a.cfg.GossipAddr: true}
	for id, ps := range a.peers {
		if id == a.cfg.ID || ps.GossipAddr == "" || seen[ps.GossipAddr] {
			continue
		}
		if ps.Status == Dead {
			continue
		}
		pool = append(pool, ps.GossipAddr)
		seen[ps.GossipAddr] = true
	}
	if len(a.peers) < a.cfg.Nodes {
		for _, s := range a.cfg.Seeds {
			if !seen[s] {
				pool = append(pool, s)
				seen[s] = true
			}
		}
	}
	sort.Strings(pool) // determinism: map order must not leak into choices
	a.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > fanout {
		pool = pool[:fanout]
	}
	return pool
}

func (a *Agent) digestsLocked() []digest {
	ds := make([]digest, 0, len(a.peers))
	for id, ps := range a.peers {
		ds = append(ds, digest{Node: id, Gen: ps.Gen, Ver: ps.Ver})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Node < ds[j].Node })
	return ds
}

// statesLocked returns full states for the given ids (unknown ids are
// skipped).
func (a *Agent) statesLocked(ids []int) []NodeState {
	var out []NodeState
	for _, id := range ids {
		if ps, ok := a.peers[id]; ok {
			out = append(out, ps.NodeState)
		}
	}
	return out
}

// mergeLocked folds a received state in, returning whether it was news.
// A dead verdict stands until a higher generation arrives.
func (a *Agent) mergeLocked(st NodeState, now time.Time) bool {
	if st.Node < 0 || st.Node >= a.cfg.Nodes || st.Node == a.cfg.ID {
		return false
	}
	st.Status = Alive
	ps, ok := a.peers[st.Node]
	if !ok {
		a.peers[st.Node] = &peerState{NodeState: st, heard: now}
		return true
	}
	if !st.newer(ps.NodeState) {
		return false
	}
	restarted := st.Gen > ps.Gen
	if ps.Status == Dead && !restarted {
		st.Status = Dead
	} else {
		ps.heard = now
	}
	ps.NodeState = st
	if restarted && a.cfg.OnResurrect != nil {
		a.cfg.OnResurrect(st.Node)
	}
	return true
}

// Handle processes one received packet, replying through send as the
// exchange's phase demands. Malformed packets are dropped.
func (a *Agent) Handle(data []byte, now time.Time) {
	var p packet
	if err := json.Unmarshal(data, &p); err != nil {
		return
	}
	a.mu.Lock()
	var reply *packet
	switch p.Kind {
	case kindSyn:
		// First fold in the sender's piggybacked self-state (first
		// contact: learn who is talking), then compare its digests with
		// local knowledge: send back what we know better, ask for what
		// they know better.
		for _, st := range p.States {
			a.mergeLocked(st, now)
		}
		ack := packet{Kind: kindAck, From: a.cfg.ID}
		mentioned := make(map[int]bool, len(p.Digests))
		for _, d := range p.Digests {
			if d.Node < 0 || d.Node >= a.cfg.Nodes {
				continue
			}
			mentioned[d.Node] = true
			ps, ok := a.peers[d.Node]
			remote := NodeState{Node: d.Node, Gen: d.Gen, Ver: d.Ver}
			switch {
			case !ok:
				ack.Want = append(ack.Want, d.Node)
			case remote.newer(ps.NodeState):
				ack.Want = append(ack.Want, d.Node)
			case ps.NodeState.newer(remote):
				ack.States = append(ack.States, ps.NodeState)
			}
		}
		for id, ps := range a.peers {
			if !mentioned[id] {
				ack.States = append(ack.States, ps.NodeState)
			}
		}
		sort.Slice(ack.States, func(i, j int) bool { return ack.States[i].Node < ack.States[j].Node })
		sort.Ints(ack.Want)
		reply = &ack
	case kindAck:
		for _, st := range p.States {
			a.mergeLocked(st, now)
		}
		if len(p.Want) > 0 {
			reply = &packet{Kind: kindAck2, From: a.cfg.ID, States: a.statesLocked(p.Want)}
		}
	case kindAck2:
		for _, st := range p.States {
			a.mergeLocked(st, now)
		}
	}
	var addr string
	if reply != nil {
		if ps, ok := a.peers[p.From]; ok && ps.GossipAddr != "" {
			addr = ps.GossipAddr
		} else {
			reply = nil // stranger with no return address yet
		}
	}
	a.mu.Unlock()
	if reply != nil {
		buf, _ := json.Marshal(reply)
		a.send(addr, buf)
	}
}

// View returns a snapshot of every known node's state, ordered by id.
func (a *Agent) View() []NodeState {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]NodeState, 0, len(a.peers))
	for _, ps := range a.peers {
		out = append(out, ps.NodeState)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
