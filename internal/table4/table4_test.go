package table4

import (
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/proto"
)

func TestKernelsBuildAndCompileAtEveryLevel(t *testing.T) {
	decls := proto.NewRegistry().Decls()
	levels := []compiler.Level{compiler.LevelBase, compiler.LevelLI, compiler.LevelMC, compiler.LevelDC}
	for _, k := range Kernels() {
		if k.Prog.Funcs["kernel"] == nil {
			t.Fatalf("%s: no kernel function", k.Name)
		}
		var prev int
		for i, lvl := range levels {
			out, err := compiler.Compile(k.Prog, decls, lvl)
			if err != nil {
				t.Fatalf("%s at %s: %v", k.Name, lvl, err)
			}
			counts := compiler.AnnotationCounts(out)
			total := 0
			for _, v := range counts {
				total += v
			}
			if total == 0 {
				t.Errorf("%s at %s: no annotations at all", k.Name, lvl)
			}
			// Static annotation count is non-increasing through the first
			// three levels (DC can only delete too).
			if i > 0 && total > prev {
				t.Errorf("%s: static annotations grew at %s: %d -> %d", k.Name, lvl, prev, total)
			}
			prev = total
		}
	}
}

// TestKernelSpaceDeclsConsistent checks the loader's conventions, which
// every embedded kernel passes or Kernels panics: a source that declares
// its spaces out of order, or has no kernel function, is refused.
func TestKernelSpaceDeclsConsistent(t *testing.T) {
	swapped := `
space data protocol "sc";
space local protocol "null";
func kernel(r: region<data>): float { return r[0]; }
`
	if _, _, err := compileKernel(swapped); err == nil || !strings.Contains(err.Error(), `space 0 is "data"`) {
		t.Errorf("misordered spaces: err = %v", err)
	}
	if _, _, err := compileKernel(`space local protocol "null"; func main(): int { return 0; }`); err == nil {
		t.Error("source without func kernel was accepted")
	}
}

func TestBlockRangePartition(t *testing.T) {
	covered := 0
	for p := 0; p < 5; p++ {
		lo, hi := blockRange(17, 5, p)
		covered += hi - lo
	}
	if covered != 17 {
		t.Fatalf("blockRange covers %d of 17", covered)
	}
}

func TestKernelProgramsAreWellTyped(t *testing.T) {
	// Every kernel's parameter list must type each region parameter with
	// at least one space (the analysis otherwise refuses to optimize).
	for _, k := range Kernels() {
		f := k.Prog.Funcs["kernel"]
		for i, p := range f.Params {
			if p.Kind == ir.KRegion && len(p.Spaces) == 0 {
				t.Errorf("%s: region parameter %d has no declared spaces", k.Name, i)
			}
		}
	}
}
