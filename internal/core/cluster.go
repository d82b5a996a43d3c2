package core

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
)

// Options configures a cluster.
type Options struct {
	// Procs is the number of logical processors (SPMD threads). Must be
	// between 1 and MaxProcs.
	Procs int

	// Registry supplies the available protocols. Nil means a fresh
	// registry containing only the default "sc" protocol.
	Registry *Registry

	// DefaultProtocol names the protocol of the default space. Empty
	// means "sc".
	DefaultProtocol string

	// Transport, if non-nil, supplies the fabric factory: an
	// amnet.ChanConfig, a tcpnet.Config, or amnet.Fixed around an
	// already-built network. Connect is asked for Procs nodes; the
	// endpoints it returns are this process's share of the cluster —
	// all Procs of them in-process, a subset in a multi-process
	// deployment (see Join). Nil means an in-process channel network.
	Transport amnet.Transport

	// Trace selects what the observability layer (package trace) records
	// beyond the per-space operation, fast-hit and remote-miss counters,
	// which are always on: Trace.Metrics adds per-space latency
	// histograms, and a positive Trace.Events per-processor event rings
	// exported by WriteTrace. Nil counts only: no clock reads, no
	// allocation. The network counters are always on too.
	Trace *trace.Config

	// Faults, if non-nil, wraps the transport (own or provided) in a
	// fault-injecting layer (package faultnet): seeded per-link delay,
	// drop-with-redelivery, partition windows and slow-receiver
	// backpressure, all surfaced in Metrics. The wrapper preserves the
	// fabric's FIFO/exactly-once contract; only timing is perturbed, so
	// &faultnet.Policy{Delay: d} is how a cluster models a fixed network
	// latency d. When the network came through amnet.Fixed, the wrapper
	// (and the wrapped network with it) is closed by Close.
	Faults *faultnet.Policy

	// Adapt enables the online adaptive protocol controller: at barrier
	// points the runtime classifies each adaptable space's access
	// pattern from the trace counters and switches the space to the
	// registered protocol matching the pattern (via the collective
	// ChangeProtocol). See AdaptHints for how protocols opt in.
	Adapt bool

	// SyncTimeout, when positive, bounds every blocking synchronization
	// wait (barriers, locks, coherence fetches, collectives). A wait
	// that exceeds it fails the processor's Run with an error matching
	// ErrSyncStall instead of hanging. Zero means wait forever.
	SyncTimeout time.Duration
}

// Cluster is a set of logical processors sharing regions through the Ace
// runtime. Create one with NewCluster, execute an SPMD program with Run,
// then Close it.
type Cluster struct {
	opts   Options
	reg    *Registry
	net    amnet.Network
	ownNet bool
	nodes  int     // total logical processors in the cluster
	procs  []*Proc // the processors hosted by this OS process
	ran    bool

	// adaptTargets maps each advertised access pattern to its
	// registered protocol, resolved once at creation when Options.Adapt
	// is set.
	adaptTargets map[string]string

	// onClose holds auxiliary teardown hooks (the gossip membership
	// machinery a bootstrap layer attached), run by Close after the
	// network shuts down.
	onClose []func() error
}

// RegisterCloser attaches fn to Close: bootstrap layers (Join) park the
// teardown of whatever they started — gossip tickers, discovery
// sockets — on the cluster, so callers only ever close one thing.
func (c *Cluster) RegisterCloser(fn func() error) {
	c.onClose = append(c.onClose, fn)
}

// NewCluster creates a cluster and its processors.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Procs < 1 || opts.Procs > MaxProcs {
		return nil, fmt.Errorf("core: proc count %d out of range [1,%d]", opts.Procs, MaxProcs)
	}
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	if opts.DefaultProtocol == "" {
		opts.DefaultProtocol = "sc"
	}
	if _, ok := reg.Lookup(opts.DefaultProtocol); !ok {
		return nil, fmt.Errorf("core: unknown default protocol %q", opts.DefaultProtocol)
	}
	tr := opts.Transport
	own := true
	if tr == nil {
		tr = amnet.ChanConfig{}
	} else if _, fixed := tr.(amnet.FixedTransport); fixed {
		// A pre-built network stays caller-owned.
		own = false
	}
	nw, err := tr.Connect(opts.Procs)
	if err != nil {
		return nil, err
	}
	if opts.Faults != nil {
		// The wrapper owns the inner network (its Close closes both), so
		// a caller-provided transport is closed through it as well.
		nw = faultnet.Wrap(nw, *opts.Faults)
		own = true
	}
	eps := nw.Endpoints()
	if len(eps) == 0 || len(eps) > opts.Procs || eps[0].Nodes() != opts.Procs {
		total := 0
		if len(eps) > 0 {
			total = eps[0].Nodes()
		}
		if own {
			nw.Close()
		}
		return nil, fmt.Errorf("core: network is %d nodes (%d local), cluster wants %d", total, len(eps), opts.Procs)
	}
	c := &Cluster{opts: opts, reg: reg, net: nw, ownNet: own, nodes: opts.Procs}
	if opts.Adapt {
		c.adaptTargets = adaptTargetTable(reg)
	}
	c.procs = make([]*Proc, len(eps))
	for i := range c.procs {
		c.procs[i] = newProc(c, eps[i])
	}
	// Every local handler table is installed; a gated transport may
	// begin dispatching remote frames.
	nw.Start()
	return c, nil
}

// Registry returns the cluster's protocol registry.
func (c *Cluster) Registry() *Registry { return c.reg }

// Procs returns the total number of logical processors in the cluster —
// across every OS process in a multi-process deployment, not just the
// local ones (see Local).
func (c *Cluster) Procs() int { return c.nodes }

// Local returns the processors hosted by this OS process, in endpoint
// order. In a single-process cluster that is all of them.
func (c *Cluster) Local() []*Proc { return c.procs }

// Run executes fn on every local processor concurrently (the SPMD
// model: one user thread per processor — in a multi-process cluster,
// each process Runs its own share) and waits for all to finish. It
// returns the joined errors, including recovered panics. Run may be
// called at most once per cluster.
func (c *Cluster) Run(fn func(p *Proc) error) error {
	if c.ran {
		return errors.New("core: cluster Run called twice")
	}
	c.ran = true
	errs := make([]error, len(c.procs))
	var wg sync.WaitGroup
	for i, p := range c.procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := typedRuntimeError(r); ok {
						errs[i] = err
						return
					}
					errs[i] = fmt.Errorf("core: proc %d panicked: %v\n%s", i, r, debug.Stack())
				}
			}()
			// The thread's last act: fold its tallies, so counts are
			// exact once Run returns (a panic skips it, and the run
			// has failed anyway).
			errs[i] = fn(p)
			p.fold()
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close shuts the cluster's network down, then runs any registered
// auxiliary closers.
func (c *Cluster) Close() error {
	var errs []error
	if c.ownNet {
		errs = append(errs, c.net.Close())
	}
	for _, fn := range c.onClose {
		errs = append(errs, fn())
	}
	return errors.Join(errs...)
}

// Metrics aggregates the observability snapshot across the local
// processors: per-space operation, fast-hit and remote-miss counts and
// network traffic counters, plus latency histograms (populated when
// Options.Trace enabled them). Any goroutine may call it. It is exact
// while the cluster is quiescent (before and after Run); during a run
// each processor's counts of each space lag its application thread by
// fewer than foldEvery operations, which the thread tallies privately
// and folds in every foldEvery operations and at every Barrier, Lock,
// Unlock, GMalloc, ChangeProtocol and FreeSpace.
func (c *Cluster) Metrics() trace.Metrics {
	var m trace.Metrics
	for _, p := range c.procs {
		m = m.Add(p.snapshot())
	}
	return m
}

// TraceEvents returns the retained events from every processor's ring,
// ordered by start time. Empty unless Options.Trace.Events was positive.
func (c *Cluster) TraceEvents() []trace.Event {
	var evs []trace.Event
	for _, p := range c.procs {
		evs = append(evs, p.rec.Events()...)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// WriteTrace writes the retained events as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. Call it after Run.
func (c *Cluster) WriteTrace(w io.Writer) error {
	return trace.WriteChromeTrace(w, c.TraceEvents(), c.Procs())
}

// The handler identifiers reserved by the runtime. Id 3 is retired, not
// reused, so the other ids keep their wire values.
const (
	hComplete   amnet.HandlerID = 1 // completes waiter m.B with the message
	hLookup     amnet.HandlerID = 2 // region metadata request: A=id, B=seq
	hLockReq    amnet.HandlerID = 4 // region lock request: A=id, B=seq
	hUnlockMsg  amnet.HandlerID = 5 // region unlock: A=id
	hColl       amnet.HandlerID = 6 // collective: A=tag, C=op (barrier, reduction, result, broadcast), payload=value
	hProto      amnet.HandlerID = 7 // protocol message: A=region, B=seq, C=verb, D=space
	hProtoBatch amnet.HandlerID = 8 // aggregated protocol frame: A=records, B=tag, C=verb, D=space
)
