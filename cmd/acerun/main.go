// Command acerun compiles a MiniAce program and executes it SPMD on an
// in-process cluster: one VM instance per logical processor, the entry
// point being
//
//	func main(me: int, procs: int): float
//
// Usage:
//
//	acerun -procs 4 -level LI+MC+DC prog.ace
//
// Each processor's return value is printed; spaces are created from the
// program's space declarations (first protocol listed).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/internal/lang"
	"github.com/acedsm/ace/internal/vm"
	"github.com/acedsm/ace/proto"
)

func main() {
	var (
		procs = flag.Int("procs", 4, "number of logical processors")
		level = flag.String("level", "LI+MC+DC", "optimization level: base, LI, LI+MC, LI+MC+DC")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: acerun [-procs N] [-level L] file.ace")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	lvl, err := compiler.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	prog, spaces, err := lang.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	if prog.Funcs["main"] == nil {
		fatal(fmt.Errorf("program has no func main"))
	}
	compiled, err := compiler.Compile(prog, proto.NewRegistry().Decls(), lvl)
	if err != nil {
		fatal(err)
	}
	cl, err := core.NewCluster(core.Options{Procs: *procs, Registry: proto.NewRegistry()})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	results := make([]ir.Value, *procs)
	err = cl.Run(func(p *core.Proc) error {
		rtSpaces := make(map[int]*core.Space, len(spaces))
		for i, sd := range spaces {
			sp, err := p.NewSpace(sd.Protos[0])
			if err != nil {
				return err
			}
			rtSpaces[i] = sp
		}
		m := vm.New(p, compiled, rtSpaces)
		v, err := m.Call("main", ir.Int(int64(p.ID())), ir.Int(int64(p.Procs())))
		if err != nil {
			return err
		}
		mu.Lock()
		results[p.ID()] = v
		mu.Unlock()
		return nil
	})
	if err != nil {
		fatal(err)
	}
	m := cl.Metrics()
	for i, v := range results {
		fmt.Printf("proc %d: %v\n", i, v)
	}
	fmt.Printf("(%d messages, %d bytes)\n", m.Net.MsgsSent, m.Net.BytesSent)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acerun:", err)
	os.Exit(1)
}
