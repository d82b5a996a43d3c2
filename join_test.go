package ace_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/acedsm/ace"
)

// reserveUDPAddr finds a loopback UDP address that is currently free,
// for the seed member's gossip socket. The tiny close-to-rebind window
// is acceptable in tests.
func reserveUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

// TestJoinAssemblesCluster bootstraps a 4-node cluster from three Join
// calls in one test process — distinct Local sets, one of them hosting
// two nodes — and runs an SPMD program that crosses every process
// boundary: a broadcast region id, remote writes under locks, a
// collective sum and global barriers.
func TestJoinAssemblesCluster(t *testing.T) {
	seed := reserveUDPAddr(t)
	locals := [][]int{{0}, {1, 2}, {3}}
	const nodes = 4

	clusters := make([]*ace.Cluster, len(locals))
	errs := make([]error, len(locals))
	var wg sync.WaitGroup
	for i, local := range locals {
		wg.Add(1)
		go func(i int, local []int) {
			defer wg.Done()
			cfg := ace.NodeConfig{
				Nodes:       nodes,
				Local:       local,
				Interval:    20 * time.Millisecond,
				JoinTimeout: 15 * time.Second,
			}
			if i == 0 {
				cfg.Gossip = seed
			} else {
				cfg.Seeds = []string{seed}
			}
			clusters[i], errs[i] = ace.Join(cfg)
		}(i, local)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %v: %v", locals[i], err)
		}
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()

	for i, cl := range clusters {
		if got := cl.Procs(); got != nodes {
			t.Fatalf("cluster %d: Procs() = %d, want %d", i, got, nodes)
		}
		if got := len(cl.Local()); got != len(locals[i]) {
			t.Fatalf("cluster %d: %d local procs, want %d", i, got, len(locals[i]))
		}
	}

	sums := make([]int64, nodes)
	run := func(i int, cl *ace.Cluster) error {
		return cl.Run(func(p *ace.Proc) error {
			// Node 0 allocates a shared counter; everyone learns its id.
			id := p.BroadcastID(0, func() ace.RegionID {
				if p.ID() != 0 {
					return 0
				}
				return p.GMalloc(p.DefaultSpace(), 8)
			}())
			r := p.Map(id)
			p.GlobalBarrier()

			// Every node increments the counter under the region lock —
			// cross-process mutual exclusion and coherence in one step.
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
			p.GlobalBarrier()

			p.StartRead(r)
			count := r.Data.Int64(0)
			p.EndRead(r)
			if count != nodes {
				t.Errorf("node %d: counter = %d, want %d", p.ID(), count, nodes)
			}

			// A collective across the processes: sum of node ids + 1.
			sums[p.ID()] = p.AllReduceInt64(ace.OpSum, int64(p.ID())+1)
			p.Unmap(r)
			p.GlobalBarrier()
			return nil
		})
	}
	runErrs := make([]error, len(clusters))
	for i, cl := range clusters {
		wg.Add(1)
		go func(i int, cl *ace.Cluster) {
			defer wg.Done()
			runErrs[i] = run(i, cl)
		}(i, cl)
	}
	wg.Wait()
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("run %v: %v", locals[i], err)
		}
	}
	const want = int64(nodes * (nodes + 1) / 2)
	for id, got := range sums {
		if got != want {
			t.Errorf("node %d: allreduce sum = %d, want %d", id, got, want)
		}
	}
}

// TestJoinDetectsDeadMember: the gossip failure detector turns a dead
// process into ErrPeerLost on every survivor. Three Joins in one test
// process — one hosting two nodes — assemble a 4-node cluster; the
// member hosting node 0 closes while the others wait in a global
// barrier. Every survivor is tcpnet's acceptor on its links to node 0
// (the lower id dials), so the transport would wait out its whole
// redial budget (28 s) before giving up on it: only the detector, at
// 60 rounds of 10 ms, can fail the survivors' runs within 5 s.
func TestJoinDetectsDeadMember(t *testing.T) {
	seed := reserveUDPAddr(t)
	locals := [][]int{{0}, {1, 2}, {3}}
	const nodes = 4

	clusters := make([]*ace.Cluster, len(locals))
	errs := make([]error, len(locals))
	var wg sync.WaitGroup
	for i, local := range locals {
		wg.Add(1)
		go func(i int, local []int) {
			defer wg.Done()
			cfg := ace.NodeConfig{
				Nodes:       nodes,
				Local:       local,
				Interval:    10 * time.Millisecond,
				JoinTimeout: 15 * time.Second,
			}
			if i == 1 {
				cfg.Gossip = seed
			} else {
				cfg.Seeds = []string{seed}
			}
			clusters[i], errs[i] = ace.Join(cfg)
		}(i, local)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, cl := range clusters {
				if cl != nil {
					cl.Close()
				}
			}
			t.Fatalf("join %v: %v", locals[i], err)
		}
	}
	victim, survivors := clusters[0], clusters[1:]

	waiting := make(chan struct{}, nodes-1) // one send per survivor node
	runErrs := make(chan error, len(survivors))
	for _, cl := range survivors {
		go func(cl *ace.Cluster) {
			runErrs <- cl.Run(func(p *ace.Proc) error {
				waiting <- struct{}{}
				p.GlobalBarrier()
				return nil
			})
		}(cl)
	}
	for i := 0; i < nodes-1; i++ {
		<-waiting
	}
	victim.Close()

	timeout := time.After(5 * time.Second)
	for range survivors {
		select {
		case err := <-runErrs:
			if !errors.Is(err, ace.ErrPeerLost) {
				t.Errorf("survivor's Run returned %v, want ErrPeerLost", err)
			}
		case <-timeout:
			// The survivors are still blocked in Run: leave them be.
			t.Fatal("a survivor's Run did not fail within 5s of the victim's Close")
		}
	}
	for _, cl := range survivors {
		cl.Close()
	}
}

// TestJoinTimeoutNamesMissingNodes: a member whose peers never show up
// fails within JoinTimeout and says which node ids went unclaimed.
func TestJoinTimeoutNamesMissingNodes(t *testing.T) {
	_, err := ace.Join(ace.NodeConfig{
		Nodes:       3,
		Local:       []int{0},
		Interval:    10 * time.Millisecond,
		JoinTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("join succeeded with absent peers")
	}
	if !strings.Contains(err.Error(), "1,2") {
		t.Fatalf("error %q does not name missing nodes 1,2", err)
	}
}

// TestJoinValidates rejects impossible configurations up front.
func TestJoinValidates(t *testing.T) {
	if _, err := ace.Join(ace.NodeConfig{Nodes: 0, Local: []int{0}}); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := ace.Join(ace.NodeConfig{Nodes: 2}); err == nil {
		t.Error("accepted empty Local")
	}
}
