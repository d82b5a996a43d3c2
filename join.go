package ace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/gossip"
	"github.com/acedsm/ace/internal/tcpnet"
	"github.com/acedsm/ace/proto"
)

// NodeConfig describes one OS process's share of a multi-process
// cluster: which logical processors it hosts, how its gossip layer
// finds the other processes, and the runtime options every process
// must agree on. The data plane's connection supervision (timeouts,
// backoff, reconnect budget) is fixed by package tcpnet and is not
// configured here. See Join.
type NodeConfig struct {
	// Nodes is the total number of logical processors in the cluster,
	// summed across every process.
	Nodes int

	// Local lists the node ids this process hosts — disjoint across
	// processes, together covering 0..Nodes-1. One id is the common
	// case; a slice packs several processors into one process.
	Local []int

	// Gossip is the UDP bind address for the membership layer. Default
	// "127.0.0.1:0" (ephemeral — fine for every process that at least
	// one Seeds entry can reach transitively; seed processes need a
	// port their peers were told about).
	Gossip string

	// Seeds are gossip addresses of other processes, used until peers
	// are discovered. Every process except a common seed needs at
	// least one.
	Seeds []string

	// Seed seeds the gossip layer's randomized peer selection. Zero is
	// a fine default; distinct values de-correlate target choices.
	Seed int64

	// Interval is the gossip round period. Default 50ms.
	Interval time.Duration

	// SuspectAfter and DeadAfter are the failure detector thresholds:
	// a process whose heartbeats stall for SuspectAfter is suspected,
	// and at DeadAfter its nodes are declared down on the data fabric —
	// blocked synchronization then fails with ErrPeerLost instead of
	// hanging. Defaults 20 and 60 gossip intervals.
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// JoinTimeout bounds the wait for membership to converge (every
	// node's data address learned). Default 30s.
	JoinTimeout time.Duration

	// Epoch is the cluster's recovery epoch. A fresh deployment is
	// epoch 0. After a member loss the survivors tear their mesh down
	// and re-Join at the next epoch (with Rejoin set); the restarted
	// member does the same. Claims are tagged with the epoch, and the
	// bootstrap only accepts matching claims — so nobody dials a data
	// address gossiped before the crash, which the dead incarnation
	// owned. Old-epoch state still circulating in gossip is simply
	// ignored until it ages out.
	Epoch uint64

	// Rejoin marks this process as a returning or surviving member of a
	// recovering cluster. Without it, observing a claim from a higher
	// epoch fails the Join fast with an error naming that epoch — the
	// operator (or supervisor) restarts with Rejoin and the matching
	// Epoch rather than joining a cluster that has moved on. With it,
	// mismatched claims are silently filtered while coverage converges.
	// The gossip layer needs no flag either way: the restarted process
	// carries a fresh generation, which resurrects its member entry on
	// every survivor (Status Dead → Alive, see gossip.Config.OnResurrect).
	Rejoin bool

	// OnResurrect, if non-nil, fires when a member returns with a fresh
	// generation — a restarted process, whether or not the failure
	// detector had declared it dead first. (Join also reacts itself:
	// the old incarnation's nodes are declared down on the data fabric,
	// since a restart is proof positive the previous incarnation died.)
	// Informational: called from the gossip tick goroutine, so it must
	// not block.
	OnResurrect func(member int)

	// Options carries the runtime options the cluster-wide program
	// agrees on: Registry, DefaultProtocol, Trace, Adapt, SyncTimeout.
	// Procs, Transport and Faults are managed by Join and ignored.
	Options Options
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Gossip == "" {
		c.Gossip = "127.0.0.1:0"
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 20 * c.Interval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.SuspectAfter
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	return c
}

// peerDowner is the transport hook the failure detector feeds: tcpnet
// implements it.
type peerDowner interface {
	DeclarePeerDown(peer amnet.NodeID)
}

// Join assembles this process's share of a multi-process cluster and
// returns the same Cluster surface NewCluster does: Run executes the
// SPMD program on the local processors, Procs reports the cluster-wide
// total, barriers and collectives span every process.
//
// The bootstrap is two-phase. First the process binds its data-plane
// listeners (tcpnet, ephemeral ports) and starts gossiping: seeded
// SYN/ACK/ACK2 rounds spread each process's (node ids → data address)
// claims epidemically until every node 0..Nodes-1 is accounted for.
// Then the full mesh is dialed and the runtime comes up exactly as in
// process-local clusters. The gossip layer keeps running underneath as
// the failure detector: a process silent past DeadAfter has its nodes
// declared down, so survivors' blocked waits fail with ErrPeerLost
// rather than hanging. Close tears down the mesh and the gossip layer.
func Join(cfg NodeConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("ace: invalid node count %d", cfg.Nodes)
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("ace: NodeConfig.Local is empty — this process hosts no nodes")
	}

	// Phase 1a: bind the data-plane listeners to learn our addresses.
	nd, err := tcpnet.Listen(tcpnet.Config{Nodes: cfg.Nodes, Local: append([]int(nil), cfg.Local...)})
	if err != nil {
		return nil, err
	}

	// Phase 1b: gossip our claims until the member map covers every
	// node. The member id is our lowest hosted node id (distinct
	// across processes because Local sets are disjoint).
	member := cfg.Local[0]
	for _, id := range cfg.Local {
		if id < member {
			member = id
		}
	}
	udp, err := gossip.ListenUDP(cfg.Gossip)
	if err != nil {
		nd.Close()
		return nil, err
	}

	// The failure detector outlives the bootstrap: once the mesh
	// exists, a dead member's nodes are declared down on it. claims
	// maps member id → hosted node ids, filled as views arrive.
	var fabric atomic.Value // peerDowner
	var claimsMu sync.Mutex
	claims := make(map[int][]int)

	agent, err := gossip.New(gossip.Config{
		ID:           member,
		Nodes:        cfg.Nodes,
		Generation:   uint64(time.Now().UnixNano()),
		Seed:         cfg.Seed,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		GossipAddr:   udp.Addr(),
		DataAddr:     encodeClaims(cfg.Epoch, cfg.Local, nd.Addrs()),
		Seeds:        cfg.Seeds,
		OnResurrect: func(m int) {
			// A higher generation is proof the member's previous
			// incarnation died, even if it restarted faster than the
			// failure detector could suspect it. Its old data addresses
			// are dead sockets: declare them down so survivors' blocked
			// waits fail with ErrPeerLost and recovery can begin.
			declareDown(m, claims, &claimsMu, &fabric)
			if cfg.OnResurrect != nil {
				cfg.OnResurrect(m)
			}
		},
		OnDead: func(m int) {
			declareDown(m, claims, &claimsMu, &fabric)
		},
	}, udp.Send)
	if err != nil {
		udp.Close()
		nd.Close()
		return nil, err
	}

	go udp.Serve(agent.Handle)
	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		tk := time.NewTicker(cfg.Interval)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tk.C:
				agent.Tick(now)
			}
		}
	}()
	teardownGossip := func() {
		close(stop)
		tickWG.Wait()
		udp.Close()
	}

	// Phase 1c: wait for full coverage — every node id has a data
	// address in somebody's claim.
	addrs, err := awaitCoverage(agent, cfg, claims, &claimsMu)
	if err != nil {
		teardownGossip()
		nd.Close()
		return nil, err
	}

	// Phase 2: dial the mesh and bring the runtime up on it. The
	// transport's dispatch gate holds remote frames until NewCluster
	// finishes registering handlers.
	nw, err := nd.Connect(addrs)
	if err != nil {
		teardownGossip()
		return nil, err
	}
	fabric.Store(nw.(peerDowner))

	opts := cfg.Options
	opts.Procs = cfg.Nodes
	opts.Faults = nil
	opts.Transport = amnet.Fixed(nw)
	if opts.Registry == nil {
		opts.Registry = proto.NewRegistry()
	}
	cl, err := core.NewCluster(opts)
	if err != nil {
		teardownGossip()
		nw.Close()
		return nil, err
	}
	// The cluster does not own a Fixed network: close it before the
	// gossip teardown, as an owned fabric would be.
	cl.RegisterCloser(nw.Close)
	cl.RegisterCloser(func() error {
		teardownGossip()
		return nil
	})
	return cl, nil
}

// declareDown marks every node a member claimed as down on the data
// fabric, failing blocked synchronization with ErrPeerLost. Fired by
// the failure detector (OnDead) and by resurrection (a restarted
// member's old incarnation is certainly gone).
func declareDown(member int, claims map[int][]int, mu *sync.Mutex, fabric *atomic.Value) {
	mu.Lock()
	nodes := claims[member]
	mu.Unlock()
	pd, _ := fabric.Load().(peerDowner)
	if pd == nil {
		return
	}
	for _, n := range nodes {
		pd.DeclarePeerDown(amnet.NodeID(n))
	}
}

// awaitCoverage polls the gossip view until every node id 0..Nodes-1
// has a claimed data address (also recording member→nodes claims for
// the failure detector), or JoinTimeout passes.
func awaitCoverage(agent *gossip.Agent, cfg NodeConfig, claims map[int][]int, mu *sync.Mutex) ([]string, error) {
	deadline := time.Now().Add(cfg.JoinTimeout)
	for {
		addrs := make([]string, cfg.Nodes)
		covered := 0
		var newerEpoch uint64
		for _, st := range agent.View() {
			epoch, parsed := parseClaims(st.DataAddr)
			if epoch != cfg.Epoch {
				// A claim from another recovery epoch: a pre-crash data
				// address (stale — its owner is gone) or a cluster that
				// already moved past us. Never dial it.
				if epoch > cfg.Epoch && epoch > newerEpoch {
					newerEpoch = epoch
				}
				continue
			}
			nodes := make([]int, 0, len(parsed))
			for id, addr := range parsed {
				if id >= 0 && id < cfg.Nodes && addrs[id] == "" {
					addrs[id] = addr
					covered++
				}
				nodes = append(nodes, id)
			}
			sort.Ints(nodes)
			mu.Lock()
			claims[st.Node] = nodes
			mu.Unlock()
		}
		if newerEpoch > 0 && !cfg.Rejoin {
			return nil, fmt.Errorf("ace: cluster is recovering at epoch %d (local epoch %d) — restart with Rejoin and the current epoch",
				newerEpoch, cfg.Epoch)
		}
		if covered == cfg.Nodes {
			return addrs, nil
		}
		if time.Now().After(deadline) {
			var missing []string
			for id, a := range addrs {
				if a == "" {
					missing = append(missing, strconv.Itoa(id))
				}
			}
			return nil, fmt.Errorf("ace: membership did not converge within %v: no epoch-%d address for node(s) %s",
				cfg.JoinTimeout, cfg.Epoch, strings.Join(missing, ","))
		}
		time.Sleep(cfg.Interval / 2)
	}
}

// encodeClaims renders a process's hosted nodes and their data
// addresses as the gossiped metadata payload: "id=addr,id=addr",
// prefixed with the recovery epoch ("e<N>;...") when nonzero — epoch 0
// keeps the unprefixed form, so a fresh deployment's claims are
// readable by older tooling.
func encodeClaims(epoch uint64, local []int, addrs []string) string {
	parts := make([]string, len(local))
	for i, id := range local {
		parts[i] = strconv.Itoa(id) + "=" + addrs[i]
	}
	s := strings.Join(parts, ",")
	if epoch > 0 {
		s = "e" + strconv.FormatUint(epoch, 10) + ";" + s
	}
	return s
}

// parseClaims is encodeClaims's inverse; malformed entries are skipped
// and a missing epoch prefix means epoch 0.
func parseClaims(s string) (uint64, map[int]string) {
	var epoch uint64
	if rest, ok := strings.CutPrefix(s, "e"); ok {
		if es, claims, ok := strings.Cut(rest, ";"); ok {
			if e, err := strconv.ParseUint(es, 10, 64); err == nil {
				epoch = e
				s = claims
			}
		}
	}
	out := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(id)
		if err != nil || addr == "" {
			continue
		}
		out[n] = addr
	}
	return epoch, out
}
