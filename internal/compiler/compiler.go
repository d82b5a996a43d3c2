// Package compiler implements the Ace compiler's middle end: it lowers
// shared accesses to runtime annotations (ACE_MAP, ACE_START_READ, ...,
// Figure 5 of the paper) and then optimizes them with the three passes of
// Section 4.2 — moving calls out of loops (LI), merging redundant protocol
// calls (MC), and direct dispatch with null-handler elimination (DC) — all
// gated by a space/protocol dataflow analysis and the per-protocol
// "optimizable" flag from the system configuration file.
package compiler

import (
	"fmt"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Level selects the cumulative optimization level, matching Table 4's
// rows.
type Level int

// The optimization levels.
const (
	LevelBase Level = iota // annotations only
	LevelLI                // + loop invariance
	LevelMC                // + merging redundant calls
	LevelDC                // + direct dispatch / null-handler elimination
)

func (l Level) String() string {
	switch l {
	case LevelBase:
		return "base"
	case LevelLI:
		return "LI"
	case LevelMC:
		return "LI+MC"
	case LevelDC:
		return "LI+MC+DC"
	}
	return "?"
}

// ParseLevel returns the level whose String is s.
func ParseLevel(s string) (Level, error) {
	for l := LevelBase; l <= LevelDC; l++ {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q", s)
}

// Compile lowers and optimizes a program at the given level. decls is the
// compiler's view of the protocol registry (the system configuration
// file). The input program is not modified.
func Compile(p *ir.Program, decls []core.Decl, lvl Level) (*ir.Program, error) {
	byName := make(map[string]core.Decl, len(decls))
	for _, d := range decls {
		byName[d.Name] = d
	}
	out := p.Clone()
	for _, f := range out.Funcs {
		f.Body = annotate(f, f.Body)
	}
	if err := analyze(out, byName); err != nil {
		return nil, err
	}
	if lvl >= LevelLI {
		for _, f := range out.Funcs {
			f.Body = loopInvariance(f.Body, byName)
		}
	}
	if lvl >= LevelMC {
		for _, f := range out.Funcs {
			f.Body = mergeCalls(f.Body, byName)
		}
	}
	if lvl >= LevelDC {
		for _, f := range out.Funcs {
			f.Body = directDispatch(f.Body, byName)
		}
	}
	return out, nil
}

// AnnotationCounts tallies the static annotation instructions in a
// program, for reporting and golden tests.
func AnnotationCounts(p *ir.Program) map[string]int {
	counts := map[string]int{}
	var walk func([]ir.Instr)
	walk = func(list []ir.Instr) {
		for _, in := range list {
			switch in.Op {
			case ir.OpMap:
				counts["map"]++
			case ir.OpUnmap:
				counts["unmap"]++
			case ir.OpStartRead:
				counts["start_read"]++
			case ir.OpEndRead:
				counts["end_read"]++
			case ir.OpStartWrite:
				counts["start_write"]++
			case ir.OpEndWrite:
				counts["end_write"]++
			}
			walk(in.Body)
			walk(in.Else)
		}
	}
	for _, f := range p.Funcs {
		walk(f.Body)
	}
	return counts
}

// annotate lowers SharedLoad/SharedStore to runtime annotation sequences,
// following the translation process of Figure 5:
//
//	t1 = ACE_MAP(base); ACE_START_READ(t1); t2 = t1[i]; ACE_END_READ(t1)
func annotate(f *ir.Func, list []ir.Instr) []ir.Instr {
	var out []ir.Instr
	for _, in := range list {
		switch in.Op {
		case ir.OpSharedLoad:
			h := newLocal(f, ir.Type{Kind: ir.KHandle})
			out = append(out,
				ir.Instr{Op: ir.OpMap, Dst: h, A: in.A},
				ir.Instr{Op: ir.OpStartRead, Dst: -1, A: ir.L(h)},
				ir.Instr{Op: ir.OpLoad, Dst: in.Dst, A: ir.L(h), B: in.B, ElemKind: in.ElemKind},
				ir.Instr{Op: ir.OpEndRead, Dst: -1, A: ir.L(h)},
			)
		case ir.OpSharedStore:
			h := newLocal(f, ir.Type{Kind: ir.KHandle})
			out = append(out,
				ir.Instr{Op: ir.OpMap, Dst: h, A: in.A},
				ir.Instr{Op: ir.OpStartWrite, Dst: -1, A: ir.L(h)},
				ir.Instr{Op: ir.OpStore, Dst: -1, A: ir.L(h), B: in.B, Src: in.Src, ElemKind: in.ElemKind},
				ir.Instr{Op: ir.OpEndWrite, Dst: -1, A: ir.L(h)},
			)
		case ir.OpLoop, ir.OpIf:
			in.Body = annotate(f, in.Body)
			in.Else = annotate(f, in.Else)
			out = append(out, in)
		default:
			out = append(out, in)
		}
	}
	return out
}

func newLocal(f *ir.Func, t ir.Type) int {
	slot := f.NumLocals
	f.NumLocals++
	f.LocalTypes = append(f.LocalTypes, t)
	return slot
}

// isAnnotation reports whether the op is a protocol-call annotation.
func isAnnotation(op ir.Op) bool {
	switch op {
	case ir.OpMap, ir.OpUnmap, ir.OpStartRead, ir.OpEndRead, ir.OpStartWrite, ir.OpEndWrite:
		return true
	}
	return false
}

// annotationPoint maps an annotation op to its protocol invocation point.
func annotationPoint(op ir.Op) core.Point {
	switch op {
	case ir.OpMap:
		return core.PointMap
	case ir.OpUnmap:
		return core.PointUnmap
	case ir.OpStartRead:
		return core.PointStartRead
	case ir.OpEndRead:
		return core.PointEndRead
	case ir.OpStartWrite:
		return core.PointStartWrite
	case ir.OpEndWrite:
		return core.PointEndWrite
	}
	panic(fmt.Sprintf("compiler: op %d is not an annotation", op))
}

// optimizable reports whether every possible protocol of the annotation
// permits compiler optimization. An empty set means the analysis could not
// bound the protocols: never optimizable.
func optimizable(protos []string, decls map[string]core.Decl) bool {
	if len(protos) == 0 {
		return false
	}
	for _, name := range protos {
		d, ok := decls[name]
		if !ok || !d.Optimizable {
			return false
		}
	}
	return true
}
