package main

import (
	"strings"
	"testing"
	"time"

	"github.com/acedsm/ace"
	"github.com/acedsm/ace/internal/apps/em3d"
)

// TestValidate: every flag combination that would fail only after the
// cluster is up is refused before anything binds or joins.
func TestValidate(t *testing.T) {
	type args struct {
		nodes      int
		interval   time.Duration
		joinWait   time.Duration
		syncWait   time.Duration
		local      string
		standalone bool
		run        string
		steps      int
		size       int
		proto      string
		ckpt       string
		every      int
	}
	ok := args{nodes: 4, interval: 50 * time.Millisecond, joinWait: 30 * time.Second,
		local: "0", run: "em3d", steps: 10, size: 256, every: 2}
	for _, c := range []struct {
		name string
		edit func(*args)
		want string // "" = accepted, else a substring of the error
	}{
		{"defaults", func(a *args) {}, ""},
		{"standalone", func(a *args) { a.standalone, a.local = true, "" }, ""},
		{"registered proto", func(a *args) { a.proto = "staticupdate" }, ""},
		{"ckpt", func(a *args) { a.ckpt = "ck" }, ""},
		{"no ckpt, every 0", func(a *args) { a.every = 0 }, ""},
		{"wait ignores em3d flags", func(a *args) { a.run, a.steps, a.size, a.proto = "wait", 1, 2, "nosuch" }, ""},
		{"hang", func(a *args) { a.run = "hang" }, ""},
		{"sync timeout", func(a *args) { a.syncWait = time.Second }, ""},
		{"no nodes", func(a *args) { a.nodes = 0 }, "-nodes"},
		{"zero interval", func(a *args) { a.interval = 0 }, "-interval"},
		{"negative interval", func(a *args) { a.standalone, a.interval = true, -time.Millisecond }, "-interval"},
		{"zero join timeout", func(a *args) { a.joinWait = 0 }, "-join-timeout"},
		{"negative join timeout", func(a *args) { a.joinWait = -time.Second }, "-join-timeout"},
		{"negative sync timeout", func(a *args) { a.standalone, a.syncWait = true, -time.Second }, "-sync-timeout"},
		{"no local", func(a *args) { a.local = "" }, "-local"},
		{"bad local", func(a *args) { a.local = "0,x" }, "-local"},
		{"unknown workload", func(a *args) { a.run = "nosuch" }, "unknown workload"},
		{"one step", func(a *args) { a.standalone, a.steps = true, 1 }, "-steps"},
		{"size below nodes", func(a *args) { a.standalone, a.size = true, 2 }, "-size"},
		{"unknown proto", func(a *args) { a.standalone, a.proto = true, "nosuch" }, "unknown protocol"},
		{"ckpt every 0", func(a *args) { a.ckpt, a.every = "ck", 0 }, "-ckpt-every"},
	} {
		a := ok
		c.edit(&a)
		cfg := em3d.DefaultConfig()
		cfg.Steps, cfg.Nodes, cfg.Proto = a.steps, a.size, a.proto
		if a.ckpt != "" {
			cfg.Elastic.Every = a.every // as main sets it
		}
		nc := ace.NodeConfig{Nodes: a.nodes, Interval: a.interval, JoinTimeout: a.joinWait,
			Options: ace.Options{SyncTimeout: a.syncWait}}
		_, err := validate(nc, a.local, a.standalone, a.run, cfg, a.ckpt)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
