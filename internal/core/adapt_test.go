package core

import "testing"

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
// hints: protocols naming a pattern become targets, opted-out ones do
// not.
func TestAdaptTargetTable(t *testing.T) {
	mk := func(name string) func() Protocol {
		return func() Protocol { return &namedBase{name: name} }
	}
	reg := NewRegistry() // has "sc": PatternGeneral
	reg.MustRegister(Info{
		Name: "mig", New: mk("mig"),
		Adapt: AdaptHints{Pattern: PatternMigratory},
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
