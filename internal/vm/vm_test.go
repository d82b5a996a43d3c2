package vm

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/proto"
)

// runProgram compiles (at the given level) and executes a one-function
// program on a single-proc cluster with one "sc" space, returning the
// result.
func runProgram(t *testing.T, f *ir.Func, lvl compiler.Level, args ...ir.Value) ir.Value {
	t.Helper()
	prog := &ir.Program{Funcs: map[string]*ir.Func{f.Name: f}, SpaceProtos: map[int][]string{0: {"sc"}}}
	compiled, err := compiler.Compile(prog, proto.NewRegistry().Decls(), lvl)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(core.Options{Procs: 1, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	var out ir.Value
	err = cl.Run(func(p *core.Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		m := New(p, compiled, map[int]*core.Space{0: sp})
		v, err := m.Call(f.Name, args...)
		if err != nil {
			return err
		}
		mu.Lock()
		out = v
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestArithmetic(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KInt}, ir.Type{Kind: ir.KFloat})
	s1 := b.Bin(ir.KInt, ir.Add, ir.L(0), ir.CI(10))     // a + 10
	s2 := b.Bin(ir.KInt, ir.Mul, ir.L(s1), ir.CI(3))     // *3
	s3 := b.Bin(ir.KInt, ir.Mod, ir.L(s2), ir.CI(7))     // %7
	f1 := b.Un(ir.KFloat, ir.IntToFloat, ir.L(s3))       // to float
	f2 := b.Bin(ir.KFloat, ir.Add, ir.L(f1), ir.L(1))    // + b
	f3 := b.Un(ir.KFloat, ir.Sqrt, ir.L(f2))             // sqrt
	f4 := b.Bin(ir.KFloat, ir.Div, ir.L(f3), ir.CF(2.0)) // /2
	b.Ret(ir.L(f4))
	got := runProgram(t, b.Func(), compiler.LevelBase, ir.Int(4), ir.Float(2.75))
	want := math.Sqrt(float64((4+10)*3%7)+2.75) / 2
	if got.F != want {
		t.Fatalf("got %v, want %v", got.F, want)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KInt})
	lt := b.Bin(ir.KInt, ir.Lt, ir.L(0), ir.CI(10))
	eq := b.Bin(ir.KInt, ir.Eq, ir.L(0), ir.CI(5))
	both := b.Bin(ir.KInt, ir.And, ir.L(lt), ir.L(eq))
	not := b.Un(ir.KInt, ir.Not, ir.L(both))
	either := b.Bin(ir.KInt, ir.Or, ir.L(not), ir.CI(0))
	b.Ret(ir.L(either))
	if got := runProgram(t, b.Func(), compiler.LevelBase, ir.Int(5)); got.I != 0 {
		t.Fatalf("5<10 && 5==5, negated: got %d, want 0", got.I)
	}
	if got := runProgram(t, b.Func(), compiler.LevelBase, ir.Int(6)); got.I != 1 {
		t.Fatalf("got %d, want 1", got.I)
	}
}

func TestLoopAndIfControl(t *testing.T) {
	// Sum of even numbers below n.
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KInt})
	sum := b.Local(ir.KInt)
	b.MoveTo(sum, ir.CI(0))
	i := b.Local(ir.KInt)
	b.Loop(i, ir.CI(0), ir.L(0), func() {
		even := b.Bin(ir.KInt, ir.Eq, ir.L(b.Bin(ir.KInt, ir.Mod, ir.L(i), ir.CI(2))), ir.CI(0))
		b.If(ir.L(even), func() {
			b.MoveTo(sum, ir.L(b.Bin(ir.KInt, ir.Add, ir.L(sum), ir.L(i))))
		}, nil)
	})
	b.Ret(ir.L(sum))
	if got := runProgram(t, b.Func(), compiler.LevelBase, ir.Int(10)); got.I != 20 {
		t.Fatalf("got %d, want 20", got.I)
	}
}

func TestSharedAccessAllKinds(t *testing.T) {
	b := ir.NewBuilder("f")
	r := b.GMalloc(0, ir.CI(64))
	b.SharedStore(ir.KFloat, ir.L(r), ir.CI(0), ir.CF(2.5))
	b.SharedStore(ir.KInt, ir.L(r), ir.CI(1), ir.CI(-9))
	r2 := b.GMalloc(0, ir.CI(8))
	b.SharedStore(ir.KRegion, ir.L(r), ir.CI(2), ir.L(r2))
	b.SharedStore(ir.KFloat, ir.L(r2), ir.CI(0), ir.CF(7.0))

	fv := b.SharedLoad(ir.KFloat, ir.L(r), ir.CI(0))
	iv := b.SharedLoad(ir.KInt, ir.L(r), ir.CI(1))
	rv := b.SharedLoad(ir.KRegion, ir.L(r), ir.CI(2))
	inner := b.SharedLoad(ir.KFloat, ir.L(rv), ir.CI(0))
	ivf := b.Un(ir.KFloat, ir.IntToFloat, ir.L(iv))
	s1 := b.Bin(ir.KFloat, ir.Add, ir.L(fv), ir.L(ivf))
	s2 := b.Bin(ir.KFloat, ir.Add, ir.L(s1), ir.L(inner))
	b.Ret(ir.L(s2))
	if got := runProgram(t, b.Func(), compiler.LevelBase); got.F != 2.5-9+7 {
		t.Fatalf("got %v, want 0.5", got.F)
	}
}

func TestSameResultAtEveryLevel(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("f", ir.Type{Kind: ir.KInt})
		r := b.GMalloc(0, ir.CI(800))
		i := b.Local(ir.KInt)
		b.Loop(i, ir.CI(0), ir.L(0), func() {
			v := b.Un(ir.KFloat, ir.IntToFloat, ir.L(i))
			b.SharedStore(ir.KFloat, ir.L(r), ir.L(i), ir.L(v))
		})
		sum := b.Local(ir.KFloat)
		b.MoveTo(sum, ir.CF(0))
		j := b.Local(ir.KInt)
		b.Loop(j, ir.CI(0), ir.L(0), func() {
			v := b.SharedLoad(ir.KFloat, ir.L(r), ir.L(j))
			b.MoveTo(sum, ir.L(b.Bin(ir.KFloat, ir.Add, ir.L(sum), ir.L(v))))
		})
		b.Ret(ir.L(sum))
		return b.Func()
	}
	var results []float64
	for _, lvl := range []compiler.Level{compiler.LevelBase, compiler.LevelLI, compiler.LevelMC, compiler.LevelDC} {
		got := runProgram(t, build(), lvl, ir.Int(50))
		results = append(results, got.F)
	}
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("levels disagree: %v", results)
		}
	}
	if results[0] != 1225 {
		t.Fatalf("got %v, want 1225", results[0])
	}
}

func TestUnannotatedSharedAccessRejected(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KRegion, Spaces: []int{0}})
	v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	b.Ret(ir.L(v))
	f := b.Func()
	prog := &ir.Program{Funcs: map[string]*ir.Func{"f": f}, SpaceProtos: map[int][]string{0: {"sc"}}}
	cl, err := core.NewCluster(core.Options{Procs: 1, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp, _ := p.NewSpace("sc")
		m := New(p, prog, map[int]*core.Space{0: sp})
		id := p.GMalloc(sp, 8)
		_, err := m.Call("f", ir.Region(id))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "un-annotated") {
		t.Fatalf("err = %v, want un-annotated rejection", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	cl, err := core.NewCluster(core.Options{Procs: 1, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		m := New(p, &ir.Program{Funcs: map[string]*ir.Func{}}, nil)
		_, err := m.Call("nope")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

func TestArgCountMismatch(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KInt})
	b.Ret(ir.L(0))
	prog := &ir.Program{Funcs: map[string]*ir.Func{"f": b.Func()}}
	cl, err := core.NewCluster(core.Options{Procs: 1, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		m := New(p, prog, nil)
		_, err := m.Call("f") // missing arg
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "expects 1 args") {
		t.Fatalf("err = %v", err)
	}
}

func TestCountsTally(t *testing.T) {
	b := ir.NewBuilder("f")
	r := b.GMalloc(0, ir.CI(8))
	b.SharedStore(ir.KFloat, ir.L(r), ir.CI(0), ir.CF(1))
	v := b.SharedLoad(ir.KFloat, ir.L(r), ir.CI(0))
	b.Ret(ir.L(v))
	prog := &ir.Program{Funcs: map[string]*ir.Func{"f": b.Func()}, SpaceProtos: map[int][]string{0: {"sc"}}}
	compiled, err := compiler.Compile(prog, proto.NewRegistry().Decls(), compiler.LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(core.Options{Procs: 1, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp, _ := p.NewSpace("sc")
		m := New(p, compiled, map[int]*core.Space{0: sp})
		if _, err := m.Call("f"); err != nil {
			return err
		}
		if m.Counts[core.PointMap] != 2 || m.Counts[core.PointStartWrite] != 1 || m.Counts[core.PointStartRead] != 1 {
			t.Errorf("counts = %v", m.Counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
