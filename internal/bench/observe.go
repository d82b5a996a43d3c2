package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/acedsm/ace/internal/stats"
	"github.com/acedsm/ace/internal/trace"
)

// FormatMetrics renders an observability snapshot as tables: one row per
// operation with counts and latency quantiles, a per-space protocol
// breakdown, and the network totals.
func FormatMetrics(m trace.Metrics) string {
	var b strings.Builder

	ops := stats.NewTable("operation", "count", "fast hits", "mean", "p50", "p99")
	for op := trace.Op(0); op < trace.NumOps; op++ {
		h := m.OpLatency[op]
		if h.Count == 0 && m.Ops[op] == 0 {
			continue
		}
		ops.AddRow(op.String(), m.Ops[op], m.FastOps[op],
			round(h.Mean()), round(h.Quantile(0.5)), round(h.Quantile(0.99)))
	}
	b.WriteString(ops.String())

	if len(m.Spaces) > 0 {
		b.WriteString("\n")
		sp := stats.NewTable("space", "protocol", "ops", "fast hits", "busiest op", "count")
		for _, s := range m.Spaces {
			top, topN := trace.Op(0), uint64(0)
			for op := trace.Op(0); op < trace.NumOps; op++ {
				if s.Ops[op] > topN {
					top, topN = op, s.Ops[op]
				}
			}
			busiest := "-"
			if topN > 0 {
				busiest = top.String()
			}
			sp.AddRow(s.Space, s.Protocol, s.Ops.Total(), s.FastOps.Total(), busiest, topN)
		}
		b.WriteString(sp.String())
	}

	b.WriteString("\n")
	fmt.Fprintf(&b, "network: %d msgs / %d bytes sent, %d msgs / %d bytes received\n",
		m.Net.MsgsSent, m.Net.BytesSent, m.Net.MsgsRecv, m.Net.BytesRecv)
	fmt.Fprintf(&b, "delivery: %d direct, %d polled, %d pumped; %d waits parked\n",
		m.Net.RecvDirect, m.Net.RecvPolled, m.Net.RecvPumped, m.Net.WaitsParked)
	if c := m.Coll; c.Barriers+c.Reduces+c.Bcasts+c.AggFrames > 0 {
		fmt.Fprintf(&b, "collectives: %d barriers, %d reduces, %d bcasts (thread entries); %d msgs / %d bytes on the wire\n",
			c.Barriers, c.Reduces, c.Bcasts, c.Hops, c.Bytes)
		if c.AggFrames > 0 {
			fmt.Fprintf(&b, "aggregation: %d frames carried %d region updates (%.1f/frame, %d bytes); regions-per-frame",
				c.AggFrames, c.AggRegions, float64(c.AggRegions)/float64(c.AggFrames), c.AggBytes)
			for i := 0; i < trace.FrameBuckets; i++ {
				fmt.Fprintf(&b, " %s:%d", trace.FrameBucketLabel(i), c.FrameHist[i])
			}
			b.WriteString("\n")
		}
	}
	if d := m.Net.Deliver; d.Count > 0 {
		fmt.Fprintf(&b, "send→deliver latency: %d samples, mean %v, p50 %v, p99 %v\n",
			d.Count, round(d.Mean()), round(d.Quantile(0.5)), round(d.Quantile(0.99)))
	}
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
