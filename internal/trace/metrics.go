package trace

// OpCounts is a plain-value vector of per-operation invocation counts,
// indexable by Op.
type OpCounts [NumOps]uint64

// Get returns the count for op.
func (c OpCounts) Get(op Op) uint64 {
	if op < NumOps {
		return c[op]
	}
	return 0
}

// Total returns the sum over all operations.
func (c OpCounts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// Add returns the element-wise sum of two count vectors.
func (c OpCounts) Add(o OpCounts) OpCounts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// SpaceMetrics is one space's metrics on one processor (or, after
// aggregation, across processors).
type SpaceMetrics struct {
	// Space is the space id.
	Space int
	// Protocol is the space's protocol name at snapshot time.
	Protocol string
	// Ops counts protocol invocations on the space.
	Ops OpCounts
	// FastOps counts the subset of Ops that completed on the runtime's
	// lock-free bracket fast path (never entering the protocol).
	FastOps OpCounts
	// Latency holds one invocation-latency histogram per operation.
	Latency [NumOps]Histogram
	// RemoteReadMisses / RemoteWriteMisses count bracket opens that had
	// to reach a remote home for data or permission (slow path only).
	RemoteReadMisses  uint64
	RemoteWriteMisses uint64
}

func (m SpaceMetrics) merge(o SpaceMetrics) SpaceMetrics {
	m.Ops = m.Ops.Add(o.Ops)
	m.FastOps = m.FastOps.Add(o.FastOps)
	for i := range m.Latency {
		m.Latency[i] = m.Latency[i].Add(o.Latency[i])
	}
	m.RemoteReadMisses += o.RemoteReadMisses
	m.RemoteWriteMisses += o.RemoteWriteMisses
	if m.Protocol == "" {
		m.Protocol = o.Protocol
	}
	return m
}

// AdaptStats is one space's adaptive-controller state, surfaced through
// Metrics.Adapt when Options.Adapt is set. The controller decides from
// counted cluster-wide aggregates only, so it runs the same decision
// sequence on every processor and per-processor snapshots agree;
// aggregation keeps the furthest-evolved one.
type AdaptStats struct {
	// Space is the space id.
	Space int
	// Protocol is the currently installed protocol.
	Protocol string
	// Pattern is the most recent classified access pattern (empty until
	// the first epoch with enough signal).
	Pattern string
	// Epochs counts adaptation evaluations (controller barriers).
	Epochs uint64
	// Switches counts controller-initiated ChangeProtocol calls.
	Switches uint64
	// LastSwitchEpoch is the epoch of the most recent switch (0 = none).
	LastSwitchEpoch uint64
}

// Metrics is the unified observability snapshot: operation counts and
// latencies (total and per space) plus network traffic. It is the value
// returned by the public instrumentation API (Proc.Snapshot,
// Cluster.Metrics).
type Metrics struct {
	// Ops counts protocol invocations across all spaces.
	Ops OpCounts
	// FastOps counts the subset of Ops that completed on the runtime's
	// lock-free bracket fast path.
	FastOps OpCounts
	// OpLatency aggregates invocation latency across all spaces.
	OpLatency [NumOps]Histogram
	// Spaces breaks the counts down by space and protocol.
	Spaces []SpaceMetrics
	// Adapt holds per-space adaptive-controller state (empty unless the
	// cluster runs with Options.Adapt).
	Adapt []AdaptStats
	// Net aggregates the endpoint traffic counters.
	Net NetSnapshot
	// Coll aggregates the collective-topology and protocol-aggregation
	// counters.
	Coll CollSnapshot
}

// Add merges two metrics snapshots: counts and histograms sum, and
// per-space entries merge by space id.
func (m Metrics) Add(o Metrics) Metrics {
	m.Ops = m.Ops.Add(o.Ops)
	m.FastOps = m.FastOps.Add(o.FastOps)
	for i := range m.OpLatency {
		m.OpLatency[i] = m.OpLatency[i].Add(o.OpLatency[i])
	}
	merged := make([]SpaceMetrics, len(m.Spaces))
	copy(merged, m.Spaces)
	for _, osp := range o.Spaces {
		found := false
		for i := range merged {
			if merged[i].Space == osp.Space {
				merged[i] = merged[i].merge(osp)
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, osp)
		}
	}
	m.Spaces = merged
	adapt := make([]AdaptStats, len(m.Adapt))
	copy(adapt, m.Adapt)
	for _, oa := range o.Adapt {
		found := false
		for i := range adapt {
			if adapt[i].Space == oa.Space {
				// The controller is deterministic and collective, so
				// per-processor states agree; keep the furthest-evolved
				// snapshot in case one was taken mid-epoch.
				if oa.Epochs > adapt[i].Epochs {
					adapt[i] = oa
				}
				found = true
				break
			}
		}
		if !found {
			adapt = append(adapt, oa)
		}
	}
	m.Adapt = adapt
	m.Net = m.Net.Add(o.Net)
	m.Coll = m.Coll.Add(o.Coll)
	return m
}
