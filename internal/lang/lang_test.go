package lang

import (
	"strings"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/internal/vm"
	"github.com/acedsm/ace/proto"
)

const quickProgram = `
// Every processor allocates a region, broadcasts processor 0's id, and
// processor 0's value is read by all.
space data protocol "sc";

func main(me: int, procs: int): float {
    var r: region<data> = gmalloc(data, 64);
    if me == 0 {
        r[0] = 42.5;
    }
    var shared_r: region<data> = bcastid(0, r);
    barrier data;
    var v: float = shared_r[0];
    barrier data;
    return v;
}
`

// runMiniAce compiles and executes a MiniAce program SPMD, returning
// processor 0's result.
func runMiniAce(t *testing.T, src string, procs int, lvl compiler.Level) float64 {
	t.Helper()
	prog, spaces, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	compiled, err := compiler.Compile(prog, proto.NewRegistry().Decls(), lvl)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	var out float64
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
		if p.ID() == 0 {
			mu.Lock()
			out = v.F
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQuickProgramAllLevels(t *testing.T) {
	for _, lvl := range []compiler.Level{compiler.LevelBase, compiler.LevelLI, compiler.LevelMC, compiler.LevelDC} {
		if got := runMiniAce(t, quickProgram, 4, lvl); got != 42.5 {
			t.Errorf("level %v: got %v, want 42.5", lvl, got)
		}
	}
}

func TestLoopsAndFunctions(t *testing.T) {
	src := `
space acc protocol "sc";

func fill(r: region<acc>, n: int): int {
    for i = 0 to n {
        r[i] = float(i) * 2.0;
    }
    return n;
}

func main(me: int, procs: int): float {
    var r: region<acc> = gmalloc(acc, 160);
    var n: int = fill(r, 20);
    var sum: float = 0.0;
    for i = 0 to n {
        sum = sum + r[i];
    }
    barrier acc;
    return sum;
}
`
	// sum of 2*i for i in [0,20) = 380
	if got := runMiniAce(t, src, 2, compiler.LevelDC); got != 380 {
		t.Errorf("got %v, want 380", got)
	}
}

// TestVarFromVariableIsACopy checks that a var names a fresh value: one
// initialized from another variable keeps it when that variable is later
// assigned, while one initialized from any other expression takes that
// expression's result.
func TestVarFromVariableIsACopy(t *testing.T) {
	src := `
space s protocol "null";

func main(me: int, procs: int): float {
    var x: float = 1.5;
    var y: float = x;
    var z: float = x * 2.0;
    x = 4.0;
    return y + z + x;
}
`
	if got := runMiniAce(t, src, 1, compiler.LevelBase); got != 8.5 {
		t.Errorf("got %v, want 8.5", got)
	}
}

func TestChangeProtocolStatement(t *testing.T) {
	src := `
space d protocol "sc", "update";

func main(me: int, procs: int): float {
    var r: region<d> = gmalloc(d, 8);
    if me == 0 {
        r[0] = 7.0;
    }
    var s: region<d> = bcastid(0, r);
    barrier d;
    changeprotocol d, "update";
    var v: float = s[0];
    barrier d;
    return v;
}
`
	if got := runMiniAce(t, src, 3, compiler.LevelBase); got != 7 {
		t.Errorf("got %v, want 7", got)
	}
}

func TestSharedPointerTable1(t *testing.T) {
	// Table 1: region-of-region types — a shared pointer stored in a
	// shared region, dereferenced through two levels.
	src := `
space outer protocol "sc";
space inner protocol "sc";

func main(me: int, procs: int): float {
    var box: region<outer> of region<inner> = gmalloc(outer, 8);
    var cell: region<inner> = gmalloc(inner, 8);
    if me == 0 {
        cell[0] = 3.25;
    }
    var sharedCell: region<inner> = bcastid(0, cell);
    box[0] = sharedCell;
    barrier outer;
    var p: region<inner> = box[0];
    var v: float = p[0];
    barrier inner;
    return v;
}
`
	if got := runMiniAce(t, src, 2, compiler.LevelDC); got != 3.25 {
		t.Errorf("got %v, want 3.25", got)
	}
}

func TestPointerArithmeticRejected(t *testing.T) {
	src := `
space d protocol "sc";
func main(me: int, procs: int): int {
    var r: region<d> = gmalloc(d, 8);
    var x: region<d> = r + 1;
    return 0;
}
`
	_, _, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "arithmetic on shared pointers") {
		t.Fatalf("err = %v, want pointer-arithmetic rejection", err)
	}
}

func TestErrorCases(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown space", `func main(me: int, procs: int): int { var r: region<zz> = gmalloc(zz, 8); return 0; }`, "unknown space"},
		{"undefined var", `space d protocol "sc"; func main(me: int, procs: int): int { x = 1; return 0; }`, "undefined variable"},
		{"bad index", `space d protocol "sc"; func main(me: int, procs: int): int { var x: int = 3; var y: float = x[0]; return 0; }`, "indexing non-region"},
		{"unknown func", `space d protocol "sc"; func main(me: int, procs: int): int { var x: int = nope(); return 0; }`, "unknown function"},
		{"dup space", `space d protocol "sc"; space d protocol "sc"; func main(me: int, procs: int): int { return 0; }`, "duplicate space"},
		{"type mismatch", `space d protocol "sc"; func main(me: int, procs: int): int { var x: int = 1.5; return x; }`, "cannot assign"},
		{"float index", `space d protocol "sc"; func main(me: int, procs: int): int { var r: region<d> = gmalloc(d, 8); var v: float = r[1.5]; return 0; }`, "index must be int"},
	}
	for _, tc := range cases {
		_, _, err := Compile(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`space`,
		`func main( { }`,
		`space d protocol sc;`,
		`func main(me: int): int { for i = 0 { } }`,
		`@`,
		`func main(me: int): int { var x: int = "str"; }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCompilerReducesAnnotationsOnMiniAce(t *testing.T) {
	src := `
space local protocol "null";

func main(me: int, procs: int): float {
    var r: region<local> = gmalloc(local, 800);
    var sum: float = 0.0;
    for i = 0 to 100 {
        r[i] = float(i);
    }
    for i = 0 to 100 {
        sum = sum + r[i];
    }
    return sum;
}
`
	prog, _, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	decls := proto.NewRegistry().Decls()
	base, err := compiler.Compile(prog, decls, compiler.LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := compiler.Compile(prog, decls, compiler.LevelDC)
	if err != nil {
		t.Fatal(err)
	}
	nb, no := total(compiler.AnnotationCounts(base)), total(compiler.AnnotationCounts(opt))
	if no >= nb {
		t.Errorf("static annotations not reduced: base=%d optimized=%d", nb, no)
	}
	// And the optimized program still computes the right answer.
	if got := runMiniAce(t, src, 2, compiler.LevelDC); got != 4950 {
		t.Errorf("got %v, want 4950", got)
	}
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestLockUnlockStatements(t *testing.T) {
	src := `
space d protocol "sc";

func main(me: int, procs: int): float {
    var r: region<d> = gmalloc(d, 8);
    if me == 0 {
        r[0] = 0.0;
    }
    var s: region<d> = bcastid(0, r);
    barrier d;
    for i = 0 to 20 {
        lock s;
        s[0] = s[0] + 1.0;
        unlock s;
    }
    barrier d;
    return s[0];
}
`
	if got := runMiniAce(t, src, 4, compiler.LevelBase); got != 80 {
		t.Errorf("got %v, want 80", got)
	}
}

func TestLockNeedsRegion(t *testing.T) {
	src := `
space d protocol "sc";
func main(me: int, procs: int): int { var x: int = 1; lock x; return 0; }
`
	_, _, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "lock/unlock needs a region") {
		t.Fatalf("err = %v", err)
	}
}
