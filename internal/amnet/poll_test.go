package amnet_test

import (
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// TestPollOnEmptyMailboxLeavesTokenFree: a Poll that finds nothing
// queued returns before it touches the dispatch token, so a sender
// dispatching to the node at the same moment always finds the token
// free and runs its handler directly. Were Poll to take the token, a
// colliding send would be queued and delivered by a later Poll.
func TestPollOnEmptyMailboxLeavesTokenFree(t *testing.T) {
	const sends = 20000
	n := amnet.NewNode(0, 0)
	n.Register(1, func(amnet.Msg) {})
	n.RegisterTry(1, func(amnet.Msg) bool { return true })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.Poll()
			}
		}
	}()
	for i := 0; i < sends; i++ {
		n.Dispatch(amnet.Msg{Handler: 1, A: uint64(i)})
	}
	close(stop)
	wg.Wait()
	s := n.Stats()
	if d, q := s.Recv[trace.RecvDirect].Load(), s.Recv[trace.RecvPolled].Load(); d != sends || q != 0 {
		t.Fatalf("%d direct and %d polled deliveries of %d sends: a poll held the token", d, q, sends)
	}
}
