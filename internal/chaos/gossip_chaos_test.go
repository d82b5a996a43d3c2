package chaos

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/gossip"
)

// gossip packets ride an otherwise-unused handler id on the fault-
// injected fabric; addresses are node-id strings.
const hGossip amnet.HandlerID = 9

// gossipFabric runs n gossip agents over a faultnet-wrapped in-process
// network, ticking on real time. It returns the agents, the wrapped
// network (for Kill), and a stop function.
func gossipFabric(t *testing.T, n int, pol *faultnet.Policy, seed int64, mod func(i int, c *gossip.Config)) ([]*gossip.Agent, *faultnet.Network, func()) {
	t.Helper()
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	p := faultnet.Policy{}
	if pol != nil {
		p = *pol
	}
	nw := faultnet.Wrap(inner, p)
	eps := nw.Endpoints()
	agents := make([]*gossip.Agent, n)
	for i := 0; i < n; i++ {
		ep := eps[i]
		send := func(addr string, pkt []byte) {
			dst, err := strconv.Atoi(addr)
			if err != nil || dst < 0 || dst >= n {
				return
			}
			buf := amnet.Alloc(len(pkt))
			copy(buf, pkt)
			ep.Send(amnet.Msg{Dst: amnet.NodeID(dst), Handler: hGossip, Payload: buf})
		}
		cfg := gossip.Config{
			ID:         i,
			Nodes:      n,
			Seed:       seed + int64(i),
			GossipAddr: strconv.Itoa(i),
			Meta:       "data-" + strconv.Itoa(i),
			Seeds:      []string{"0"},
		}
		if mod != nil {
			mod(i, &cfg)
		}
		a, err := gossip.New(cfg, send)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		ep.Register(hGossip, func(m amnet.Msg) {
			pkt := append([]byte(nil), m.Payload...)
			amnet.Recycle(m.Payload)
			a.Handle(pkt, time.Now())
		})
	}
	var stopped atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for !stopped.Load() {
			<-tk.C
			for _, a := range agents {
				a.Tick(time.Now())
			}
		}
	}()
	stop := func() {
		if stopped.CompareAndSwap(false, true) {
			<-done
			nw.Close()
		}
	}
	return agents, nw, stop
}

// waitCovered waits until every agent's view holds every node's
// metadata.
func waitCovered(t *testing.T, agents []*gossip.Agent, within time.Duration) {
	t.Helper()
	covered := func(a *gossip.Agent) bool {
		view := a.View()
		for _, st := range view {
			if st.Meta == "" {
				return false
			}
		}
		return len(view) == len(agents)
	}
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		all := true
		for _, a := range agents {
			if !covered(a) {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, a := range agents {
		t.Logf("node %d view: %v", a.ID(), a.View())
	}
	t.Fatal("membership did not converge")
}

// TestGossipUnderFaultPolicies: membership converges and a killed node
// is detected dead, under every timing-perturbing fault policy. The
// faultnet wrapper preserves per-link order and delivery (drops are
// redelivered), so gossip sees delay, jitter, redelivery stalls and
// partition windows — the conditions its redundancy exists for.
func TestGossipUnderFaultPolicies(t *testing.T) {
	for _, policy := range []string{"jittery", "lossy", "partitioned"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			pol, err := PolicyByName(policy, 42)
			if err != nil {
				t.Fatal(err)
			}
			const n = 4
			var deadSeen [n]atomic.Int64
			agents, nw, stop := gossipFabric(t, n, pol, 42, func(i int, c *gossip.Config) {
				c.DeadAfter = 600 * time.Millisecond
				c.OnDead = func(node int) { deadSeen[i].Store(int64(node + 1)) }
			})
			defer stop()
			waitCovered(t, agents, 5*time.Second)

			// Kill node 3 on the fabric: its packets stop flowing. The
			// survivors must declare it dead within a bounded number of
			// DeadAfter windows.
			nw.Kill(3)
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				all := true
				for i := 0; i < n-1; i++ {
					if deadSeen[i].Load() != 4 {
						all = false
						break
					}
				}
				if all {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			for i := 0; i < n-1; i++ {
				if got := deadSeen[i].Load(); got != 4 {
					t.Errorf("survivor %d OnDead saw %d, want node 3", i, got-1)
				}
			}
		})
	}
}
