package core

import (
	"fmt"
	"testing"
	"time"
)

// namedBase is a no-op protocol with a name, for registry tests.
type namedBase struct {
	Base
	name string
}

func (n *namedBase) Name() string { return n.name }

// TestClassifyPattern pins the classifier's decision table: each row is
// one epoch's cluster-wide feature vector and the label it must map to.
func TestClassifyPattern(t *testing.T) {
	cases := []struct {
		name                                                  string
		reads, writes, locks, remoteReads, nReaders, nWriters int64
		homeOnly                                              bool
		current                                               string
		want                                                  string
	}{
		{"read-only", 100, 0, 0, 10, 4, 0, true, "", PatternGeneral},
		{"lock-mediated", 10, 10, 8, 2, 4, 4, false, "", PatternMigratory},
		{"locks-without-writes", 100, 0, 8, 2, 4, 0, true, "", PatternGeneral},
		{"producer-consumer", 300, 100, 0, 50, 4, 4, true, "", PatternProducerConsumer},
		{"home-write", 100, 300, 0, 20, 4, 4, true, "", PatternHomeWrite},
		{"home-only-no-remote-readers", 100, 300, 0, 0, 4, 4, true, "", PatternGeneral},
		{"single-writer", 300, 50, 0, 40, 4, 1, false, "", PatternSingleWriter},
		{"single-writer-home-only", 300, 50, 0, 40, 4, 1, true, "", PatternProducerConsumer},
		{"many-writers-no-locks", 100, 100, 0, 30, 4, 4, false, "", PatternGeneral},
		{"single-reader", 100, 100, 0, 0, 1, 1, false, "", PatternGeneral},
		// Sticky push family: a barrier-push protocol suppresses remote
		// read misses; their absence must not read as pattern exit.
		{"sticky-producer-consumer", 300, 100, 0, 0, 4, 4, true, PatternProducerConsumer, PatternProducerConsumer},
		{"sticky-home-write", 100, 300, 0, 0, 4, 4, true, PatternHomeWrite, PatternHomeWrite},
		{"sticky-crossover", 300, 100, 0, 0, 4, 4, true, PatternHomeWrite, PatternProducerConsumer},
		{"sticky-exit-on-locks", 100, 100, 8, 0, 4, 4, true, PatternProducerConsumer, PatternMigratory},
		{"no-sticky-under-sc", 300, 100, 0, 0, 4, 4, true, PatternGeneral, PatternGeneral},
	}
	for _, c := range cases {
		got := classifyPattern(c.reads, c.writes, c.locks, c.remoteReads, c.nReaders, c.nWriters, c.homeOnly, c.current)
		if got != c.want {
			t.Errorf("%s: classified %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAdaptTargetTable pins pattern→protocol resolution from registry
// hints: adaptive protocols with a pattern become targets, opted-out and
// pattern-less protocols do not.
func TestAdaptTargetTable(t *testing.T) {
	mk := func(name string) func() Protocol {
		return func() Protocol { return &namedBase{name: name} }
	}
	reg := NewRegistry() // has "sc": Adaptive, PatternGeneral
	reg.MustRegister(Info{
		Name: "mig", New: mk("mig"),
		Adapt: AdaptHints{Adaptive: true, Pattern: PatternMigratory},
	})
	reg.MustRegister(Info{
		Name: "sourceonly", New: mk("sourceonly"),
		Adapt: AdaptHints{Adaptive: true}, // no pattern: never a target
	})
	reg.MustRegister(Info{
		Name: "optout", New: mk("optout"),
	})
	tt := adaptTargetTable(reg)
	want := map[string]string{
		PatternGeneral:   "sc",
		PatternMigratory: "mig",
	}
	if len(tt) != len(want) {
		t.Fatalf("target table %v, want %v", tt, want)
	}
	for pat, name := range want {
		if tt[pat] != name {
			t.Errorf("pattern %q resolves to %q, want %q", pat, tt[pat], name)
		}
	}
}

// TestAdaptConfigDefaults pins withDefaults, including the negative-
// cooldown and negative-margin escape hatches.
func TestAdaptConfigDefaults(t *testing.T) {
	d := AdaptConfig{}.withDefaults()
	if d.EpochBarriers != 4 || d.Hysteresis != 3 || d.Cooldown != 2 || d.MinOps != 64 || d.RollbackMargin != 1.25 {
		t.Fatalf("zero-value defaults = %+v", d)
	}
	e := AdaptConfig{EpochBarriers: 1, Hysteresis: 1, Cooldown: -1, MinOps: 1, RollbackMargin: -1}.withDefaults()
	if e.EpochBarriers != 1 || e.Hysteresis != 1 || e.Cooldown != 0 || e.MinOps != 1 || e.RollbackMargin != 0 {
		t.Fatalf("explicit config normalized to %+v", e)
	}
}

// slugProto is sequentially consistent with an artificial per-write
// stall: an adaptation target that is strictly worse than what it
// replaces, for exercising the controller's rollback path.
type slugProto struct {
	SCProtocol
	stall time.Duration
}

func (s *slugProto) Name() string { return "slug" }
func (s *slugProto) StartWrite(ctx *Ctx, r *Region) {
	time.Sleep(s.stall)
	s.SCProtocol.StartWrite(ctx, r)
}

// TestAdaptRollback: the classifier points the controller at a protocol
// that turns out slower than the one it replaced. The probation epoch
// after the switch must reverse it — back to the original protocol —
// and the misleading pattern must stay retired: later epochs with the
// same signature may not re-switch.
func TestAdaptRollback(t *testing.T) {
	const stall = 50 * time.Millisecond
	reg := NewRegistry()
	reg.MustRegister(Info{
		Name:  "slug",
		New:   func() Protocol { return &slugProto{stall: stall} },
		Adapt: AdaptHints{Adaptive: true, Pattern: PatternMigratory},
	})
	cl, err := NewCluster(Options{
		Procs:    2,
		Registry: reg,
		Adapt: &AdaptConfig{
			EpochBarriers: 1,
			Hysteresis:    1,
			Cooldown:      -1, // probation epoch immediately follows the switch
			MinOps:        1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const epochs = 6
	err = cl.Run(func(p *Proc) error {
		sp := p.DefaultSpace()
		id := p.BroadcastID(0, func() RegionID {
			if p.ID() != 0 {
				return 0
			}
			return p.GMalloc(sp, 8)
		}())
		r := p.Map(id)
		// Every epoch is lock-mediated writing — the migratory
		// signature — so the controller switches to slug, pays for it,
		// rolls back, and must then resist the identical signal.
		for range [epochs]struct{}{} {
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
			p.Barrier(sp)
		}
		p.Unmap(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	adapt := cl.Metrics().Adapt
	if len(adapt) != 1 {
		t.Fatalf("adapt stats for %d spaces, want 1", len(adapt))
	}
	st := adapt[0]
	if st.Protocol != "sc" {
		t.Errorf("final protocol %q, want rollback to %q", st.Protocol, "sc")
	}
	if st.Rollbacks != 1 {
		t.Errorf("rollbacks = %d, want 1", st.Rollbacks)
	}
	// Exactly one forward switch and its reversal: the retired pattern
	// must not have earned a third.
	if st.Switches != 2 {
		t.Errorf("switches = %d, want 2 (switch + rollback)", st.Switches)
	}
}

// TestAdaptFirstEpochPricing: the controller's clock starts at the
// space's first barrier, so with EpochBarriers 1 the first epoch spans
// no barrier interval at all and must stay out of the cost baseline: a
// ~0 ns entry would halve the bar the rollback probe compares against.
func TestAdaptFirstEpochPricing(t *testing.T) {
	cl, err := NewCluster(Options{
		Procs: 2,
		Adapt: &AdaptConfig{EpochBarriers: 1, MinOps: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		sp := p.DefaultSpace()
		for want := 0; want < 3; want++ {
			p.Barrier(sp)
			st := sp.adapt.Load()
			if int(st.epoch) != want+1 || st.recentN != want {
				return fmt.Errorf("after barrier %d: epoch %d with %d priced, want %d", want+1, st.epoch, st.recentN, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
