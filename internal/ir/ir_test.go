package ir

import (
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/memory"
)

func TestValueConstructors(t *testing.T) {
	if v := Int(42); v.K != KInt || v.I != 42 {
		t.Errorf("Int: %+v", v)
	}
	if v := Float(2.5); v.K != KFloat || v.F != 2.5 {
		t.Errorf("Float: %+v", v)
	}
	id := memory.MakeID(3, 9)
	if v := Region(id); v.K != KRegion || v.R != id {
		t.Errorf("Region: %+v", v)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(7), "7"},
		{Float(1.5), "1.5"},
		{Region(memory.MakeID(1, 2)), "region<1:2>"},
		{Value{K: KHandle}, "handle"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestOperandString(t *testing.T) {
	if got := CI(5).String(); got != "5" {
		t.Errorf("const operand: %q", got)
	}
	if got := L(3).String(); got != "l3" {
		t.Errorf("local operand: %q", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KInt: "int", KFloat: "float", KRegion: "region", KHandle: "handle"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q", k, k.String())
		}
	}
}

func TestBuilderStructure(t *testing.T) {
	b := NewBuilder("f", Type{Kind: KInt}, Type{Kind: KRegion, Spaces: []int{0}})
	sum := b.Local(KFloat)
	b.MoveTo(sum, CF(0))
	i := b.Local(KInt)
	b.Loop(i, CI(0), L(0), func() {
		v := b.SharedLoad(KFloat, L(1), L(i))
		b.MoveTo(sum, L(v))
	})
	b.If(L(0), func() {
		b.Barrier(0)
	}, func() {
		b.MoveTo(sum, CF(0))
	})
	b.Ret(L(sum))
	f := b.Func()

	if len(f.Params) != 2 || f.NumLocals < 4 {
		t.Fatalf("params=%d locals=%d", len(f.Params), f.NumLocals)
	}
	if len(f.Body) != 4 { // move, loop, if, ret
		t.Fatalf("body has %d statements", len(f.Body))
	}
	if f.Body[1].Op != OpLoop || len(f.Body[1].Body) != 2 {
		t.Fatalf("loop shape wrong: %+v", f.Body[1])
	}
	if f.Body[2].Op != OpIf || len(f.Body[2].Body) != 1 || len(f.Body[2].Else) != 1 {
		t.Fatalf("if shape wrong: %+v", f.Body[2])
	}
	text := f.String()
	for _, want := range []string{"func f", "for l", "if l0", "barrier(space 0)", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

func TestBuilderUnclosedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("f")
	b.stack = append(b.stack, nil) // simulate unclosed control structure
	b.Func()
}

func TestProgramClone(t *testing.T) {
	b := NewBuilder("f", Type{Kind: KRegion, Spaces: []int{0}})
	i := b.Local(KInt)
	b.Loop(i, CI(0), CI(3), func() {
		v := b.SharedLoad(KFloat, L(0), L(i))
		_ = v
	})
	b.Ret(CF(0))
	p := &Program{Funcs: map[string]*Func{"f": b.Func()}, SpaceProtos: map[int][]string{0: {"sc"}}}
	c := p.Clone()

	// Mutating the clone must not affect the original.
	c.Funcs["f"].Body[0].Body[0].Op = OpBarrier
	c.SpaceProtos[0][0] = "changed"
	if p.Funcs["f"].Body[0].Body[0].Op == OpBarrier {
		t.Error("clone shares nested instruction storage")
	}
	if p.SpaceProtos[0][0] != "sc" {
		t.Error("clone shares space-proto storage")
	}
}

func TestGMallocBcastChangeRender(t *testing.T) {
	b := NewBuilder("f")
	r := b.GMalloc(1, CI(64))
	b.BcastID(Type{Kind: KRegion, Spaces: []int{1}}, CI(0), L(r))
	b.ChangeProto(1, "update")
	b.Ret(CI(0))
	f := b.Func()
	text := f.String()
	for _, want := range []string{"gmalloc(space 1, 64)", "bcastid(root 0", `changeprotocol(space 1, "update")`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if f.LocalTypes[r].Spaces[0] != 1 {
		t.Errorf("gmalloc local not typed with its space")
	}
}

func TestFuncStringsSorted(t *testing.T) {
	mk := func(name string) *Func {
		b := NewBuilder(name)
		b.Ret(CI(0))
		return b.Func()
	}
	p := &Program{Funcs: map[string]*Func{"zeta": mk("zeta"), "alpha": mk("alpha")}}
	out := p.FuncStrings()
	if len(out) != 2 || !strings.Contains(out[0], "alpha") || !strings.Contains(out[1], "zeta") {
		t.Errorf("FuncStrings not sorted: %v", out)
	}
}
