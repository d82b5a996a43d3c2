package bench

import (
	"fmt"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/crl"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/proto"
)

// This file holds the ablation experiments for the design choices
// DESIGN.md calls out: the CRL baseline's bounded unmapped-region cache,
// the network-latency sensitivity of update protocols (the paper's core
// premise scales with communication cost), and user-specified granularity
// as a bulk-transfer mechanism (Section 2.3).

// URCSweep runs EM3D on the CRL runtime across unmapped-region-cache
// capacities and returns message counts: smaller caches evict clean
// copies that must be re-fetched.
func URCSweep(procs int, capacities []int) (map[int]uint64, error) {
	cfg := em3d.DefaultConfig()
	cfg.Nodes = 128
	cfg.Steps = 5
	out := make(map[int]uint64, len(capacities))
	for _, capacity := range capacities {
		cl, err := crl.NewCluster(crl.Options{Procs: procs, URCCapacity: capacity})
		if err != nil {
			return nil, err
		}
		err = cl.Run(func(p *crl.Proc) error {
			_, err := em3d.Run(rtiface.NewCRL(p), cfg)
			return err
		})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("urc sweep capacity %d: %w", capacity, err)
		}
		out[capacity] = cl.Metrics().Net.MsgsSent
		cl.Close()
	}
	return out, nil
}

// LatencyPoint is one latency setting's outcome.
type LatencyPoint struct {
	Latency   time.Duration
	SC        time.Duration // em3d per-iteration under sc
	Update    time.Duration // em3d per-iteration under staticupdate
	Speedup   float64
	MsgsSC    uint64
	MsgsCusto uint64
}

// LatencySweep measures the custom-protocol speedup for EM3D at several
// injected network latencies. The update protocols' advantage is replacing
// synchronous read-miss round trips with asynchronous pushes, so the
// speedup must grow with latency.
func LatencySweep(procs int, latencies []time.Duration) ([]LatencyPoint, error) {
	cfg := em3d.DefaultConfig()
	cfg.Nodes = 64
	cfg.Steps = 5
	var out []LatencyPoint
	for _, lat := range latencies {
		runOne := func(protoName string) (apputil.Result, error) {
			c := cfg
			c.Proto = protoName
			opts := core.Options{Procs: procs, Registry: proto.NewRegistry()}
			if lat > 0 {
				// At zero the cluster stays on the bare channel fabric,
				// without faultnet's hop through its wire scheduler.
				opts.Faults = &faultnet.Policy{Delay: lat}
			}
			cl, err := core.NewCluster(opts)
			if err != nil {
				return apputil.Result{}, err
			}
			defer cl.Close()
			var res apputil.Result
			err = cl.Run(func(p *core.Proc) error {
				r, err := em3d.Run(rtiface.NewAce(p), c)
				if p.ID() == 0 {
					res = r
				}
				return err
			})
			res.Msgs = cl.Metrics().Net.MsgsSent
			return res, err
		}
		sc, err := runOne("")
		if err != nil {
			return nil, err
		}
		cu, err := runOne("staticupdate")
		if err != nil {
			return nil, err
		}
		out = append(out, LatencyPoint{
			Latency: lat, SC: sc.TimePerIter, Update: cu.TimePerIter,
			Speedup:   float64(sc.TimePerIter) / float64(cu.TimePerIter),
			MsgsSC:    sc.Msgs,
			MsgsCusto: cu.Msgs,
		})
	}
	return out, nil
}

// GranularityPoint is one region-size setting's outcome.
type GranularityPoint struct {
	Words int // region size in 8-byte words
	Msgs  uint64
	Time  time.Duration
}

// GranularitySweep moves a fixed volume of producer-consumer data per
// iteration while varying the region size: the same bytes as many small
// regions or few large ones. User-specified granularity is the paper's
// bulk-transfer mechanism (Section 2.3) — message counts must fall as
// region size grows.
func GranularitySweep(procs int, totalWords int, sizes []int) ([]GranularityPoint, error) {
	var out []GranularityPoint
	for _, words := range sizes {
		if totalWords%words != 0 {
			return nil, fmt.Errorf("granularity: %d words not divisible by region size %d", totalWords, words)
		}
		nRegions := totalWords / words
		cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = cl.Run(func(p *core.Proc) error {
			sp := p.DefaultSpace()
			ids := make([]core.RegionID, nRegions)
			if p.ID() == 0 {
				for i := range ids {
					ids[i] = p.GMalloc(sp, words*8)
				}
			}
			ids = p.BroadcastIDs(0, ids)
			for iter := 0; iter < 5; iter++ {
				if p.ID() == 0 {
					for _, id := range ids {
						r := p.Map(id)
						p.StartWrite(r)
						for w := 0; w < words; w++ {
							r.Data.SetInt64(w, int64(iter*totalWords+w))
						}
						p.EndWrite(r)
						p.Unmap(r)
					}
				}
				p.GlobalBarrier()
				// Every consumer reads the full volume.
				if p.ID() != 0 {
					for _, id := range ids {
						r := p.Map(id)
						p.StartRead(r)
						_ = r.Data.Int64(0)
						p.EndRead(r)
						p.Unmap(r)
					}
				}
				p.GlobalBarrier()
			}
			return nil
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		out = append(out, GranularityPoint{Words: words, Msgs: cl.Metrics().Net.MsgsSent, Time: time.Since(start)})
		cl.Close()
	}
	return out, nil
}
