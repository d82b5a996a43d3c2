// Package vm interprets compiled Ace IR against the runtime, one machine
// per processor (SPMD). It is the execution vehicle for the compiler
// experiments: the same kernel runs at each optimization level, and the
// protocol calls the compiler could not remove are executed for real.
package vm

import (
	"fmt"
	"math"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Machine executes IR functions on one processor.
type Machine struct {
	p      *core.Proc
	prog   *ir.Program
	spaces map[int]*core.Space

	// Counts tallies executed annotation calls by invocation point — the
	// dynamic counterpart of the compiler's static counts. Direct counts
	// the direct-bound calls among them.
	Counts [core.NumPoints]uint64
	Direct uint64
}

// New builds a machine for proc p running prog. spaces maps the program's
// space ids to runtime spaces.
func New(p *core.Proc, prog *ir.Program, spaces map[int]*core.Space) *Machine {
	return &Machine{p: p, prog: prog, spaces: spaces}
}

// val is a runtime value: a constant plus, for handles, the mapped region.
type val struct {
	v ir.Value
	h *core.Region
}

type frame struct {
	locals []val
}

// Call executes the named function with the given arguments.
func (m *Machine) Call(fn string, args ...ir.Value) (ir.Value, error) {
	f := m.prog.Funcs[fn]
	if f == nil {
		return ir.Value{}, fmt.Errorf("vm: unknown function %q", fn)
	}
	if len(args) != len(f.Params) {
		return ir.Value{}, fmt.Errorf("vm: %s expects %d args, got %d", fn, len(f.Params), len(args))
	}
	fr := &frame{locals: make([]val, f.NumLocals)}
	for i, a := range args {
		fr.locals[i] = val{v: a}
	}
	ret, err := m.exec(fr, f.Body)
	if err != nil {
		return ir.Value{}, err
	}
	if ret == nil {
		return ir.Value{}, nil
	}
	return *ret, nil
}

// exec runs a statement list; a non-nil result is a return value
// propagating outward.
func (m *Machine) exec(fr *frame, list []ir.Instr) (*ir.Value, error) {
	for i := range list {
		in := &list[i]
		switch in.Op {
		case ir.OpMove:
			fr.locals[in.Dst] = m.eval(fr, in.A)
		case ir.OpBin:
			a, b := m.eval(fr, in.A).v, m.eval(fr, in.B).v
			v, err := binop(in.Bin, a, b)
			if err != nil {
				return nil, err
			}
			fr.locals[in.Dst] = val{v: v}
		case ir.OpUn:
			a := m.eval(fr, in.A).v
			v, err := unop(in.Un, a)
			if err != nil {
				return nil, err
			}
			fr.locals[in.Dst] = val{v: v}
		case ir.OpMap:
			id := m.eval(fr, in.A).v.R
			m.count(core.PointMap, in.Direct)
			fr.locals[in.Dst] = val{v: ir.Value{K: ir.KHandle}, h: m.p.Map(id)}
		case ir.OpUnmap:
			m.count(core.PointUnmap, in.Direct)
			m.p.Unmap(m.handle(fr, in.A))
		case ir.OpStartRead:
			m.count(core.PointStartRead, in.Direct)
			if in.Bare {
				m.p.StartReadBare(m.handle(fr, in.A))
			} else {
				m.p.StartRead(m.handle(fr, in.A))
			}
		case ir.OpEndRead:
			m.count(core.PointEndRead, in.Direct)
			if in.Bare {
				m.p.EndReadBare(m.handle(fr, in.A))
			} else {
				m.p.EndRead(m.handle(fr, in.A))
			}
		case ir.OpStartWrite:
			m.count(core.PointStartWrite, in.Direct)
			if in.Bare {
				m.p.StartWriteBare(m.handle(fr, in.A))
			} else {
				m.p.StartWrite(m.handle(fr, in.A))
			}
		case ir.OpEndWrite:
			m.count(core.PointEndWrite, in.Direct)
			if in.Bare {
				m.p.EndWriteBare(m.handle(fr, in.A))
			} else {
				m.p.EndWrite(m.handle(fr, in.A))
			}
		case ir.OpLoad:
			h := m.handle(fr, in.A)
			idx := int(m.eval(fr, in.B).v.I)
			fr.locals[in.Dst] = val{v: loadElem(h, idx, in.ElemKind)}
		case ir.OpStore:
			h := m.handle(fr, in.A)
			idx := int(m.eval(fr, in.B).v.I)
			storeElem(h, idx, m.eval(fr, in.Src).v, in.ElemKind)
		case ir.OpSharedLoad, ir.OpSharedStore:
			return nil, fmt.Errorf("vm: un-annotated shared access (run the compiler first)")
		case ir.OpBarrier:
			spID := int(m.eval(fr, in.A).v.I)
			sp := m.spaces[spID]
			if sp == nil {
				return nil, fmt.Errorf("vm: barrier on unknown space %d", spID)
			}
			m.p.Barrier(sp)
		case ir.OpLoop:
			start := m.eval(fr, in.A).v.I
			for x := start; ; x++ {
				end := m.eval(fr, in.B).v.I
				if x >= end {
					break
				}
				fr.locals[in.Dst] = val{v: ir.Int(x)}
				ret, err := m.exec(fr, in.Body)
				if err != nil || ret != nil {
					return ret, err
				}
			}
		case ir.OpIf:
			cond := m.eval(fr, in.A).v.I
			body := in.Body
			if cond == 0 {
				body = in.Else
			}
			ret, err := m.exec(fr, body)
			if err != nil || ret != nil {
				return ret, err
			}
		case ir.OpCall:
			args := make([]ir.Value, len(in.Args))
			for ai, a := range in.Args {
				args[ai] = m.eval(fr, a).v
			}
			v, err := m.Call(in.Callee, args...)
			if err != nil {
				return nil, err
			}
			if in.Dst >= 0 {
				fr.locals[in.Dst] = val{v: v}
			}
		case ir.OpRet:
			v := m.eval(fr, in.A).v
			return &v, nil
		case ir.OpGMalloc:
			spID := int(m.eval(fr, in.A).v.I)
			sp := m.spaces[spID]
			if sp == nil {
				return nil, fmt.Errorf("vm: gmalloc in unknown space %d", spID)
			}
			size := int(m.eval(fr, in.B).v.I)
			fr.locals[in.Dst] = val{v: ir.Region(m.p.GMalloc(sp, size))}
		case ir.OpBcastID:
			root := int(m.eval(fr, in.A).v.I)
			id := m.eval(fr, in.Src).v.R
			fr.locals[in.Dst] = val{v: ir.Region(m.p.BroadcastID(root, id))}
		case ir.OpLock, ir.OpUnlock:
			id := m.eval(fr, in.A).v.R
			r := m.p.Map(id)
			if in.Op == ir.OpLock {
				m.p.Lock(r)
			} else {
				m.p.Unlock(r)
			}
			m.p.Unmap(r)
		case ir.OpChangeProto:
			spID := int(m.eval(fr, in.A).v.I)
			sp := m.spaces[spID]
			if sp == nil {
				return nil, fmt.Errorf("vm: changeprotocol on unknown space %d", spID)
			}
			if err := m.p.ChangeProtocol(sp, in.Callee); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("vm: bad opcode %d", in.Op)
		}
	}
	return nil, nil
}

func (m *Machine) count(point core.Point, direct bool) {
	m.Counts[point]++
	if direct {
		m.Direct++
	}
}

func (m *Machine) eval(fr *frame, o ir.Operand) val {
	if o.IsConst {
		return val{v: o.Const}
	}
	return fr.locals[o.Local]
}

func (m *Machine) handle(fr *frame, o ir.Operand) *core.Region {
	v := m.eval(fr, o)
	if v.h == nil {
		panic(fmt.Sprintf("vm: proc %d: operand %v is not a mapped handle", m.p.ID(), o))
	}
	return v.h
}

func loadElem(r *core.Region, idx int, k ir.Kind) ir.Value {
	switch k {
	case ir.KFloat:
		return ir.Float(r.Data.Float64(idx))
	case ir.KInt:
		return ir.Int(r.Data.Int64(idx))
	case ir.KRegion:
		return ir.Region(r.Data.RegionID(idx))
	}
	panic(fmt.Sprintf("vm: bad load kind %v", k))
}

func storeElem(r *core.Region, idx int, v ir.Value, k ir.Kind) {
	switch k {
	case ir.KFloat:
		r.Data.SetFloat64(idx, v.F)
	case ir.KInt:
		r.Data.SetInt64(idx, v.I)
	case ir.KRegion:
		r.Data.SetRegionID(idx, v.R)
	default:
		panic(fmt.Sprintf("vm: bad store kind %v", k))
	}
}

func binop(op ir.BinOp, a, b ir.Value) (ir.Value, error) {
	if a.K == ir.KFloat || b.K == ir.KFloat {
		x, y := toF(a), toF(b)
		switch op {
		case ir.Add:
			return ir.Float(x + y), nil
		case ir.Sub:
			return ir.Float(x - y), nil
		case ir.Mul:
			return ir.Float(x * y), nil
		case ir.Div:
			return ir.Float(x / y), nil
		case ir.Lt:
			return boolVal(x < y), nil
		case ir.Le:
			return boolVal(x <= y), nil
		case ir.Eq:
			return boolVal(x == y), nil
		case ir.Ne:
			return boolVal(x != y), nil
		}
		return ir.Value{}, fmt.Errorf("vm: bad float binop %d", op)
	}
	x, y := a.I, b.I
	switch op {
	case ir.Add:
		return ir.Int(x + y), nil
	case ir.Sub:
		return ir.Int(x - y), nil
	case ir.Mul:
		return ir.Int(x * y), nil
	case ir.Div:
		return ir.Int(x / y), nil
	case ir.Mod:
		return ir.Int(x % y), nil
	case ir.Lt:
		return boolVal(x < y), nil
	case ir.Le:
		return boolVal(x <= y), nil
	case ir.Eq:
		return boolVal(x == y), nil
	case ir.Ne:
		return boolVal(x != y), nil
	case ir.And:
		return boolVal(x != 0 && y != 0), nil
	case ir.Or:
		return boolVal(x != 0 || y != 0), nil
	}
	return ir.Value{}, fmt.Errorf("vm: bad int binop %d", op)
}

func unop(op ir.UnOp, a ir.Value) (ir.Value, error) {
	switch op {
	case ir.Neg:
		if a.K == ir.KFloat {
			return ir.Float(-a.F), nil
		}
		return ir.Int(-a.I), nil
	case ir.Sqrt:
		return ir.Float(math.Sqrt(toF(a))), nil
	case ir.IntToFloat:
		return ir.Float(float64(a.I)), nil
	case ir.Not:
		return boolVal(a.I == 0), nil
	}
	return ir.Value{}, fmt.Errorf("vm: bad unop %d", op)
}

func toF(v ir.Value) float64 {
	if v.K == ir.KFloat {
		return v.F
	}
	return float64(v.I)
}

func boolVal(b bool) ir.Value {
	if b {
		return ir.Int(1)
	}
	return ir.Int(0)
}
