package em3d_test

import (
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/proto"
)

// runElastic executes RunElastic on a fresh cluster, collecting each
// processor's latest saved checkpoint, and returns proc 0's result with
// the cluster's message total in Msgs.
func runElastic(t *testing.T, procs int, cfg em3d.Config, el em3d.ElasticConfig,
	saved map[int]*core.Checkpoint) apputil.Result {
	t.Helper()
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	var res apputil.Result
	err = cl.Run(func(p *core.Proc) error {
		pel := el
		if saved != nil {
			pel.Save = func(ck *core.Checkpoint) error {
				mu.Lock()
				saved[p.ID()] = ck
				mu.Unlock()
				return nil
			}
		}
		if el.Resume != nil {
			// Per-proc resume images come through the saved map.
			mu.Lock()
			pel.Resume = saved[p.ID()]
			mu.Unlock()
		}
		r, err := em3d.RunElastic(p, cfg, pel)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			mu.Lock()
			res = r
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Msgs = cl.Metrics().Net.MsgsSent
	return res
}

// TestElasticMatchesPlainRun: RunElastic with checkpoints enabled (but
// never used) computes the same checksum as the plain runner — the
// checkpoint collectives are invisible to the computation.
func TestElasticMatchesPlainRun(t *testing.T) {
	for _, protoName := range []string{"", "staticupdate", "update"} {
		cfg := smallCfg()
		cfg.Proto = protoName
		base := run(t, 4, cfg, false)
		got := runElastic(t, 4, cfg, em3d.ElasticConfig{Every: 2}, nil)
		if got.Checksum != base.Checksum {
			t.Errorf("proto %q: elastic checksum %v != plain %v", protoName, got.Checksum, base.Checksum)
		}
	}
}

// TestResumeFromCheckpointBitIdentical is the recovery model's core
// claim in miniature: run to completion saving checkpoints, then start
// a brand-new cluster, restore each processor's last checkpoint, replay
// the remaining steps, and land on a bit-identical checksum — after a
// round trip through the serialized checkpoint format — for fewer
// messages than the full run (replay is bounded by the checkpoint).
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	for _, protoName := range []string{"", "staticupdate", "update"} {
		cfg := smallCfg()
		cfg.Steps = 6
		cfg.Proto = protoName
		saved := make(map[int]*core.Checkpoint)
		base := runElastic(t, 4, cfg, em3d.ElasticConfig{Every: 2}, saved)
		if len(saved) != 4 {
			t.Fatalf("proto %q: saved checkpoints for %d procs, want 4", protoName, len(saved))
		}
		for id, ck := range saved {
			if ck.App != 4 {
				t.Fatalf("proto %q: proc %d last checkpoint at step %d, want 4", protoName, id, ck.App)
			}
			rt, err := core.DecodeCheckpoint(core.EncodeCheckpoint(ck))
			if err != nil {
				t.Fatalf("proto %q: checkpoint round trip: %v", protoName, err)
			}
			saved[id] = rt
		}
		got := runElastic(t, 4, cfg, em3d.ElasticConfig{Resume: &core.Checkpoint{}}, saved)
		if got.Checksum != base.Checksum {
			t.Errorf("proto %q: resumed checksum %v != full run %v", protoName, got.Checksum, base.Checksum)
		}
		if got.Msgs >= base.Msgs {
			t.Errorf("proto %q: resumed run sent %d msgs, full run %d", protoName, got.Msgs, base.Msgs)
		}
	}
}
