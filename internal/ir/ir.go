// Package ir defines the intermediate representation the Ace compiler
// operates on: a small, structured, typed IR in which accesses to shared
// regions are explicit instructions. The front end (package lang) emits
// SharedLoad/SharedStore instructions through a Builder; the compiler's
// annotation pass lowers them to runtime calls (Map, StartRead, ...)
// exactly as Figure 5 of the paper describes, and the optimization passes
// then hoist, merge and devirtualize those calls.
package ir

import (
	"fmt"

	"github.com/acedsm/ace/internal/memory"
)

// Kind is a value kind.
type Kind uint8

// The value kinds. KRegion values are shared-region ids (the IR's
// representation of pointers to shared data); KHandle values are mapped
// region handles, produced only by the annotation pass.
const (
	KInt Kind = iota
	KFloat
	KRegion
	KHandle
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KRegion:
		return "region"
	case KHandle:
		return "handle"
	}
	return "?"
}

// Value is a constant or runtime value.
type Value struct {
	K Kind
	I int64
	F float64
	R memory.RegionID
}

// Int builds an integer value.
func Int(v int64) Value { return Value{K: KInt, I: v} }

// Float builds a float value.
func Float(v float64) Value { return Value{K: KFloat, F: v} }

// Region builds a region-id value.
func Region(id memory.RegionID) Value { return Value{K: KRegion, R: id} }

func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KRegion:
		return v.R.String()
	default:
		return "handle"
	}
}

// Operand is either a constant or a local slot reference.
type Operand struct {
	IsConst bool
	Const   Value
	Local   int
}

// C builds a constant operand.
func C(v Value) Operand { return Operand{IsConst: true, Const: v} }

// CI builds a constant integer operand.
func CI(v int64) Operand { return C(Int(v)) }

// CF builds a constant float operand.
func CF(v float64) Operand { return C(Float(v)) }

// L builds a local operand.
func L(slot int) Operand { return Operand{Local: slot} }

func (o Operand) String() string {
	if o.IsConst {
		return o.Const.String()
	}
	return fmt.Sprintf("l%d", o.Local)
}

// Op enumerates instruction opcodes.
type Op uint8

// The instruction opcodes.
const (
	OpMove Op = iota // Dst = A
	OpBin            // Dst = A <Bin> B
	OpUn             // Dst = <Un> A

	OpSharedLoad  // Dst = shared[A=base region][B=index], kind ElemKind (pre-annotation)
	OpSharedStore // shared[A=base region][B=index] = Src, kind ElemKind (pre-annotation)

	OpMap        // Dst = ACE_MAP(A=base region)
	OpUnmap      // ACE_UNMAP(A=handle)
	OpStartRead  // ACE_START_READ(A=handle)
	OpEndRead    // ACE_END_READ(A=handle)
	OpStartWrite // ACE_START_WRITE(A=handle)
	OpEndWrite   // ACE_END_WRITE(A=handle)
	OpLoad       // Dst = handle[A=handle][B=index], kind ElemKind (post-annotation)
	OpStore      // handle[A=handle][B=index] = Src, kind ElemKind (post-annotation)

	OpBarrier // barrier on space A (int operand: space id)
	OpLoop    // for Dst = A; Dst < B; Dst++ { Body }
	OpIf      // if A != 0 { Body } else { Else }
	OpCall    // Dst = Callee(Args...)
	OpRet     // return A

	OpGMalloc     // Dst = gmalloc(space A, size B)
	OpBcastID     // Dst = broadcast region id Src from root A (collective)
	OpChangeProto // change space A's protocol to Callee (collective)
	OpLock        // acquire the region lock of A (a region id)
	OpUnlock      // release the region lock of A
)

var opNames = map[Op]string{
	OpMove: "move", OpBin: "bin", OpUn: "un",
	OpSharedLoad: "sload", OpSharedStore: "sstore",
	OpMap: "ACE_MAP", OpUnmap: "ACE_UNMAP",
	OpStartRead: "ACE_START_READ", OpEndRead: "ACE_END_READ",
	OpStartWrite: "ACE_START_WRITE", OpEndWrite: "ACE_END_WRITE",
	OpLoad: "load", OpStore: "store",
	OpBarrier: "barrier", OpLoop: "loop", OpIf: "if", OpCall: "call", OpRet: "ret",
	OpGMalloc: "gmalloc", OpBcastID: "bcastid", OpChangeProto: "changeproto",
	OpLock: "lock", OpUnlock: "unlock",
}

// BinOp enumerates binary operators.
type BinOp uint8

// The binary operators. Comparison operators yield KInt 0/1.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Lt
	Le
	Eq
	Ne
	And
	Or
)

var binNames = map[BinOp]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%",
	Lt: "<", Le: "<=", Eq: "==", Ne: "!=", And: "&&", Or: "||",
}

// UnOp enumerates unary operators.
type UnOp uint8

// The unary operators.
const (
	Neg UnOp = iota
	Sqrt
	IntToFloat
	Not
)

var unNames = map[UnOp]string{Neg: "neg", Sqrt: "sqrt", IntToFloat: "i2f", Not: "not"}

// Instr is one IR instruction. Structured control flow (OpLoop, OpIf)
// carries nested bodies.
type Instr struct {
	Op  Op
	Dst int // destination local, -1 if none

	A, B, Src Operand
	Bin       BinOp
	Un        UnOp
	ElemKind  Kind // element kind for load/store

	// Body and Else are the nested statement lists of OpLoop / OpIf.
	Body []Instr
	Else []Instr

	// Callee names the function for OpCall; Args its arguments.
	Callee string
	Args   []Operand

	// Annotation metadata, filled by the compiler.
	//
	// Protos is the set of protocol names this annotation may dispatch
	// to, computed by the space/protocol dataflow analysis. Direct is set
	// when the set is a singleton and the direct-dispatch pass bound the
	// call; DirectProto is that protocol. Bare marks a section bracket
	// whose partner was a deleted null handler: it invokes the protocol
	// routine directly, without the runtime's section bookkeeping (the
	// paper's runtime kept no such bookkeeping at all).
	Protos      []string
	Direct      bool
	DirectProto string
	Bare        bool
}

// Func is an IR function.
type Func struct {
	Name string
	// Params declares the parameter locals (slots 0..len-1) and their
	// types.
	Params []Type
	// NumLocals is the total local slot count (params included).
	NumLocals int
	// LocalTypes records each local's declared type (best effort; the
	// analysis refines region spaces).
	LocalTypes []Type
	Body       []Instr
}

// Type is a declared IR type: a kind plus, for region values, the set of
// spaces the region may belong to and the space set of region ids stored
// in its slots (the language-level type information Shasta lacks at link
// time — Section 1.1).
type Type struct {
	Kind Kind
	// Spaces is the set of space ids a KRegion value may belong to.
	Spaces []int
	// ElemSpaces is, for regions whose slots hold region ids, the space
	// set of those ids.
	ElemSpaces []int
}

// Program is a compilation unit.
type Program struct {
	Funcs map[string]*Func
	// SpaceProtos maps each space id to the protocols it may run under
	// during the program (its NewSpace protocol plus every ChangeProtocol
	// target) — the product of the paper's space/protocol analysis inputs.
	SpaceProtos map[int][]string
}

// Clone deep-copies the program so each compilation level starts from the
// same input.
func (p *Program) Clone() *Program {
	out := &Program{Funcs: make(map[string]*Func, len(p.Funcs)), SpaceProtos: make(map[int][]string, len(p.SpaceProtos))}
	for k, v := range p.SpaceProtos {
		out.SpaceProtos[k] = append([]string(nil), v...)
	}
	for name, f := range p.Funcs {
		nf := &Func{
			Name:       f.Name,
			Params:     append([]Type(nil), f.Params...),
			NumLocals:  f.NumLocals,
			LocalTypes: append([]Type(nil), f.LocalTypes...),
			Body:       cloneInstrs(f.Body),
		}
		out.Funcs[name] = nf
	}
	return out
}

func cloneInstrs(in []Instr) []Instr {
	out := make([]Instr, len(in))
	for i, ins := range in {
		out[i] = ins
		out[i].Body = cloneInstrs(ins.Body)
		out[i].Else = cloneInstrs(ins.Else)
		out[i].Args = append([]Operand(nil), ins.Args...)
		out[i].Protos = append([]string(nil), ins.Protos...)
	}
	return out
}
