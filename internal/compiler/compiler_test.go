package compiler

import (
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/proto"
)

func decls() []core.Decl { return proto.NewRegistry().Decls() }

// singleSpaceProgram builds a one-function program with one space.
func singleSpaceProgram(f *ir.Func, protoName string) *ir.Program {
	return &ir.Program{
		Funcs:       map[string]*ir.Func{f.Name: f},
		SpaceProtos: map[int][]string{0: {protoName}},
	}
}

func regionParam() ir.Type { return ir.Type{Kind: ir.KRegion, Spaces: []int{0}} }

// TestAnnotateFigure5 checks the base translation of Figure 5: a shared
// load becomes MAP / START_READ / load / END_READ, a store the write
// variants.
func TestAnnotateFigure5(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(1), ir.L(v))
	b.Ret(ir.L(v))
	prog := singleSpaceProgram(b.Func(), "sc")
	out, err := Compile(prog, decls(), LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	text := out.Funcs["f"].String()
	for _, want := range []string{"ACE_MAP", "ACE_START_READ", "ACE_END_READ", "ACE_START_WRITE", "ACE_END_WRITE"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %s in:\n%s", want, text)
		}
	}
	counts := AnnotationCounts(out)
	if counts["map"] != 2 || counts["start_read"] != 1 || counts["start_write"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// TestLoopInvarianceHoists checks the LI pass: an optimizable access with
// a loop-invariant base moves out of the loop.
func TestLoopInvarianceHoists(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("f", regionParam(), ir.Type{Kind: ir.KInt})
		sum := b.Local(ir.KFloat)
		b.MoveTo(sum, ir.CF(0))
		i := b.Local(ir.KInt)
		b.Loop(i, ir.CI(0), ir.L(1), func() {
			v := b.SharedLoad(ir.KFloat, ir.L(0), ir.L(i))
			b.MoveTo(sum, ir.L(b.Bin(ir.KFloat, ir.Add, ir.L(sum), ir.L(v))))
		})
		b.Ret(ir.L(sum))
		return b.Func()
	}
	// Optimizable protocol: hoisted.
	out, err := Compile(singleSpaceProgram(build(), "null"), decls(), LevelLI)
	if err != nil {
		t.Fatal(err)
	}
	body := out.Funcs["f"].Body
	// Expect: const, map, start_read, loop, end_read, ret.
	var sawMapBeforeLoop, sawLoop bool
	for _, in := range body {
		switch in.Op {
		case ir.OpMap:
			if !sawLoop {
				sawMapBeforeLoop = true
			}
		case ir.OpLoop:
			sawLoop = true
			for _, inner := range in.Body {
				if inner.Op == ir.OpMap || inner.Op == ir.OpStartRead || inner.Op == ir.OpEndRead {
					t.Errorf("annotation %v left inside loop:\n%s", inner.Op, out.Funcs["f"].String())
				}
			}
		}
	}
	if !sawMapBeforeLoop {
		t.Errorf("map not hoisted:\n%s", out.Funcs["f"].String())
	}

	// Non-optimizable protocol (sc): nothing moves.
	out2, err := Compile(singleSpaceProgram(build(), "sc"), decls(), LevelLI)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range out2.Funcs["f"].Body {
		if in.Op == ir.OpLoop {
			found := false
			for _, inner := range in.Body {
				if inner.Op == ir.OpMap {
					found = true
				}
			}
			if !found {
				t.Errorf("sc access should not be hoisted:\n%s", out2.Funcs["f"].String())
			}
		}
	}
}

// TestLoopInvarianceRespectsBarriers: no code motion past synchronization.
func TestLoopInvarianceRespectsBarriers(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	i := b.Local(ir.KInt)
	b.Loop(i, ir.CI(0), ir.CI(4), func() {
		v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
		_ = v
		b.Barrier(0)
	})
	b.Ret(ir.CF(0))
	out, err := Compile(singleSpaceProgram(b.Func(), "null"), decls(), LevelLI)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpLoop {
			hasMap := false
			for _, inner := range in.Body {
				if inner.Op == ir.OpMap {
					hasMap = true
				}
			}
			if !hasMap {
				t.Errorf("map hoisted past a barrier:\n%s", out.Funcs["f"].String())
			}
		}
	}
}

// TestMergeCallsFigure6 reproduces the Figure 6 transformation: two write
// sections on the same base merge, the second map is deleted and the
// highest START / lowest END survive.
func TestMergeCallsFigure6(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(0), ir.CF(1)) // *x = y
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(1), ir.CF(4)) // *x = 4
	b.Ret(ir.CF(0))
	out, err := Compile(singleSpaceProgram(b.Func(), "null"), decls(), LevelMC)
	if err != nil {
		t.Fatal(err)
	}
	counts := AnnotationCounts(out)
	if counts["map"] != 1 {
		t.Errorf("maps = %d, want 1 (redundant map removed):\n%s", counts["map"], out.Funcs["f"].String())
	}
	if counts["start_write"] != 1 || counts["end_write"] != 1 {
		t.Errorf("sections = %d/%d, want 1/1:\n%s", counts["start_write"], counts["end_write"], out.Funcs["f"].String())
	}
}

// TestMergeCallsStopsAtBarrier: availability is not assumed across
// synchronization.
func TestMergeCallsStopsAtBarrier(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(0), ir.CF(1))
	b.Barrier(0)
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(1), ir.CF(2))
	b.Ret(ir.CF(0))
	out, err := Compile(singleSpaceProgram(b.Func(), "null"), decls(), LevelMC)
	if err != nil {
		t.Fatal(err)
	}
	if counts := AnnotationCounts(out); counts["map"] != 2 {
		t.Errorf("maps = %d, want 2 (no merging across barrier)", counts["map"])
	}
}

// TestMergeNotAppliedForNonOptimizable: sc sections never merge.
func TestMergeNotAppliedForNonOptimizable(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(0), ir.CF(1))
	b.SharedStore(ir.KFloat, ir.L(0), ir.CI(1), ir.CF(4))
	b.Ret(ir.CF(0))
	out, err := Compile(singleSpaceProgram(b.Func(), "sc"), decls(), LevelMC)
	if err != nil {
		t.Fatal(err)
	}
	if counts := AnnotationCounts(out); counts["start_write"] != 2 {
		t.Errorf("sc sections merged: %v", counts)
	}
}

// TestDirectDispatchRemovesNullHandlers: with a unique protocol whose
// points are null, the calls disappear; the map survives as a direct call.
func TestDirectDispatchRemovesNullHandlers(t *testing.T) {
	b := ir.NewBuilder("f", regionParam())
	v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	b.Ret(ir.L(v))
	out, err := Compile(singleSpaceProgram(b.Func(), "null"), decls(), LevelDC)
	if err != nil {
		t.Fatal(err)
	}
	counts := AnnotationCounts(out)
	if counts["start_read"] != 0 || counts["end_read"] != 0 {
		t.Errorf("null handlers not removed: %v\n%s", counts, out.Funcs["f"].String())
	}
	if counts["map"] != 1 {
		t.Errorf("map should survive: %v", counts)
	}
	// And the surviving map is bound directly.
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpMap && (!in.Direct || in.DirectProto != "null") {
			t.Errorf("map not directly bound: %+v", in)
		}
	}
}

// TestDirectDispatchBarePartners: when one bracket of a pair is null, the
// survivor becomes a bare call.
func TestDirectDispatchBarePartners(t *testing.T) {
	// staticupdate: end_read null, start_read real.
	b := ir.NewBuilder("f", regionParam())
	v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	b.Ret(ir.L(v))
	out, err := Compile(singleSpaceProgram(b.Func(), "staticupdate"), decls(), LevelDC)
	if err != nil {
		t.Fatal(err)
	}
	foundBareStart := false
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpEndRead {
			t.Errorf("null end_read survived")
		}
		if in.Op == ir.OpStartRead {
			if !in.Bare {
				t.Errorf("start_read should be bare when end_read is removed")
			}
			foundBareStart = true
		}
	}
	if !foundBareStart {
		t.Fatal("start_read missing")
	}
}

// TestDirectDispatchNeedsUniqueProtocol: with two possible protocols,
// dispatch stays indirect.
func TestDirectDispatchNeedsUniqueProtocol(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KRegion, Spaces: []int{0, 1}})
	v := b.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	b.Ret(ir.L(v))
	prog := &ir.Program{
		Funcs:       map[string]*ir.Func{"f": b.Func()},
		SpaceProtos: map[int][]string{0: {"null"}, 1: {"update"}},
	}
	out, err := Compile(prog, decls(), LevelDC)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpMap && in.Direct {
			t.Errorf("map bound directly despite two candidate protocols")
		}
	}
	if counts := AnnotationCounts(out); counts["start_read"] != 1 {
		t.Errorf("ambiguous access must keep its calls: %v", counts)
	}
}

// TestAnalysisPropagatesThroughRegionLoads: a region id loaded from a
// region's slots carries the element space (Table 1's shared pointers).
func TestAnalysisPropagatesThroughRegionLoads(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KRegion, Spaces: []int{0}, ElemSpaces: []int{1}})
	inner := b.SharedLoad(ir.KRegion, ir.L(0), ir.CI(0))
	v := b.SharedLoad(ir.KFloat, ir.L(inner), ir.CI(0))
	b.Ret(ir.L(v))
	prog := &ir.Program{
		Funcs:       map[string]*ir.Func{"f": b.Func()},
		SpaceProtos: map[int][]string{0: {"null"}, 1: {"sc"}},
	}
	out, err := Compile(prog, decls(), LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	// The access through the loaded id must be attributed to space 1's
	// protocol (sc), the outer one to space 0 (null).
	var protos [][]string
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpMap {
			protos = append(protos, in.Protos)
		}
	}
	if len(protos) != 2 {
		t.Fatalf("expected 2 maps, got %d", len(protos))
	}
	if len(protos[0]) != 1 || protos[0][0] != "null" {
		t.Errorf("outer access protocols = %v, want [null]", protos[0])
	}
	if len(protos[1]) != 1 || protos[1][0] != "sc" {
		t.Errorf("inner access protocols = %v, want [sc]", protos[1])
	}
}

// TestAnalysisInterprocedural: space sets flow through calls.
func TestAnalysisInterprocedural(t *testing.T) {
	callee := ir.NewBuilder("reader", ir.Type{Kind: ir.KRegion})
	v := callee.SharedLoad(ir.KFloat, ir.L(0), ir.CI(0))
	callee.Ret(ir.L(v))

	caller := ir.NewBuilder("f", ir.Type{Kind: ir.KRegion, Spaces: []int{1}})
	dst := caller.Local(ir.KFloat)
	caller.Call(dst, "reader", ir.L(0))
	caller.Ret(ir.L(dst))

	prog := &ir.Program{
		Funcs:       map[string]*ir.Func{"reader": callee.Func(), "f": caller.Func()},
		SpaceProtos: map[int][]string{1: {"update"}},
	}
	out, err := Compile(prog, decls(), LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range out.Funcs["reader"].Body {
		if in.Op == ir.OpMap {
			if len(in.Protos) != 1 || in.Protos[0] != "update" {
				t.Errorf("callee access protocols = %v, want [update]", in.Protos)
			}
		}
	}
}

// TestUnknownSpaceNeverOptimized: an access whose space the analysis
// cannot bound keeps all its calls at every level.
func TestUnknownSpaceNeverOptimized(t *testing.T) {
	b := ir.NewBuilder("f", ir.Type{Kind: ir.KRegion}) // no declared spaces
	i := b.Local(ir.KInt)
	b.Loop(i, ir.CI(0), ir.CI(4), func() {
		v := b.SharedLoad(ir.KFloat, ir.L(0), ir.L(i))
		_ = v
	})
	b.Ret(ir.CF(0))
	out, err := Compile(singleSpaceProgram(b.Func(), "null"), decls(), LevelDC)
	if err != nil {
		t.Fatal(err)
	}
	counts := AnnotationCounts(out)
	if counts["map"] != 1 || counts["start_read"] != 1 || counts["end_read"] != 1 {
		t.Errorf("unknown-space access was optimized: %v\n%s", counts, out.Funcs["f"].String())
	}
	for _, in := range out.Funcs["f"].Body {
		if in.Op == ir.OpMap {
			t.Errorf("unknown-space map hoisted out of loop")
		}
	}
}

func TestParseLevelRoundTrips(t *testing.T) {
	for l := LevelBase; l <= LevelDC; l++ {
		if got, err := ParseLevel(l.String()); err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseLevel("LI+DC"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}
