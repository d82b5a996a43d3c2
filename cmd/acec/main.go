// Command acec is the Ace compiler driver: it compiles a MiniAce source
// file and shows the generated runtime annotations at each optimization
// level of Section 4.2, plus static annotation counts.
//
//	acec prog.ace              # print IR at every level
//	acec -level LI+MC prog.ace # one level only
//	acec -config prog.ace      # also print the system configuration file
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/lang"
	"github.com/acedsm/ace/proto"
)

func main() {
	var (
		level     = flag.String("level", "", "optimization level: base, LI, LI+MC, LI+MC+DC (default: all)")
		dumpConf  = flag.Bool("config", false, "print the protocol system configuration file")
		statsOnly = flag.Bool("counts", false, "print only static annotation counts")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: acec [-level L] [-config] [-counts] file.ace")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, spaces, err := lang.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	reg := proto.NewRegistry()
	if *dumpConf {
		fmt.Println("// system configuration file (Figure 1)")
		if err := reg.WriteConfig(os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("// spaces:")
	for i, sd := range spaces {
		fmt.Printf(" %d=%s(%v)", i, sd.Name, sd.Protos)
	}
	fmt.Println()

	levels := []compiler.Level{compiler.LevelBase, compiler.LevelLI, compiler.LevelMC, compiler.LevelDC}
	if *level != "" {
		lvl, err := compiler.ParseLevel(*level)
		if err != nil {
			fatal(err)
		}
		levels = []compiler.Level{lvl}
	}
	for _, lvl := range levels {
		out, err := compiler.Compile(prog, reg.Decls(), lvl)
		if err != nil {
			fatal(err)
		}
		counts := compiler.AnnotationCounts(out)
		fmt.Printf("\n// ===== level %s: static annotations %v =====\n", lvl, counts)
		if *statsOnly {
			continue
		}
		for _, f := range out.FuncStrings() {
			fmt.Print(f)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acec:", err)
	os.Exit(1)
}
