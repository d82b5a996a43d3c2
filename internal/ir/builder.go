package ir

import (
	"fmt"
	"sort"
)

// Builder constructs IR functions with structured control flow. Bodies are
// built with closures:
//
//	b := ir.NewBuilder("kernel", params...)
//	i := b.Local(ir.KInt)
//	b.Loop(i, ir.CI(0), n, func() {
//	    v := b.SharedLoad(ir.KFloat, base, ir.L(i))
//	    ...
//	})
//	b.Ret(ir.L(sum))
//	f := b.Func()
type Builder struct {
	f     *Func
	stack [][]Instr
}

// NewBuilder starts a function whose parameters occupy the first local
// slots.
func NewBuilder(name string, params ...Type) *Builder {
	f := &Func{Name: name, Params: params, NumLocals: len(params)}
	f.LocalTypes = append(f.LocalTypes, params...)
	b := &Builder{f: f}
	b.stack = [][]Instr{nil}
	return b
}

// Local allocates a new local slot of the given kind.
func (b *Builder) Local(k Kind) int {
	return b.LocalTyped(Type{Kind: k})
}

// LocalTyped allocates a new local slot with a full type.
func (b *Builder) LocalTyped(t Type) int {
	slot := b.f.NumLocals
	b.f.NumLocals++
	b.f.LocalTypes = append(b.f.LocalTypes, t)
	return slot
}

// SetType replaces the declared type of an existing local.
func (b *Builder) SetType(slot int, t Type) {
	b.f.LocalTypes[slot] = t
}

// Func finishes and returns the function.
func (b *Builder) Func() *Func {
	if len(b.stack) != 1 {
		panic("ir: unclosed control structure")
	}
	b.f.Body = b.stack[0]
	return b.f
}

func (b *Builder) emit(i Instr) {
	top := len(b.stack) - 1
	b.stack[top] = append(b.stack[top], i)
}

// MoveTo copies an operand into an existing local.
func (b *Builder) MoveTo(dst int, src Operand) {
	b.emit(Instr{Op: OpMove, Dst: dst, A: src})
}

// Bin applies a binary operator into a fresh local.
func (b *Builder) Bin(k Kind, op BinOp, x, y Operand) int {
	dst := b.Local(k)
	b.emit(Instr{Op: OpBin, Dst: dst, Bin: op, A: x, B: y})
	return dst
}

// Un applies a unary operator into a fresh local.
func (b *Builder) Un(k Kind, op UnOp, x Operand) int {
	dst := b.Local(k)
	b.emit(Instr{Op: OpUn, Dst: dst, Un: op, A: x})
	return dst
}

// SharedLoad reads a slot of a shared region into a fresh local.
func (b *Builder) SharedLoad(k Kind, base, index Operand) int {
	dst := b.Local(k)
	b.emit(Instr{Op: OpSharedLoad, Dst: dst, A: base, B: index, ElemKind: k})
	return dst
}

// SharedStore writes a slot of a shared region.
func (b *Builder) SharedStore(k Kind, base, index, src Operand) {
	b.emit(Instr{Op: OpSharedStore, Dst: -1, A: base, B: index, Src: src, ElemKind: k})
}

// Barrier emits a barrier on the given space id.
func (b *Builder) Barrier(space int) {
	b.emit(Instr{Op: OpBarrier, Dst: -1, A: CI(int64(space))})
}

// Loop emits `for dst = start; dst < end; dst++ { body }`.
func (b *Builder) Loop(dst int, start, end Operand, body func()) {
	b.stack = append(b.stack, nil)
	body()
	inner := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.emit(Instr{Op: OpLoop, Dst: dst, A: start, B: end, Body: inner})
}

// If emits a conditional on cond != 0.
func (b *Builder) If(cond Operand, then func(), els func()) {
	b.stack = append(b.stack, nil)
	then()
	thenBody := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	var elseBody []Instr
	if els != nil {
		b.stack = append(b.stack, nil)
		els()
		elseBody = b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
	}
	b.emit(Instr{Op: OpIf, Dst: -1, A: cond, Body: thenBody, Else: elseBody})
}

// GMalloc emits a region allocation from the given space.
func (b *Builder) GMalloc(space int, size Operand) int {
	dst := b.LocalTyped(Type{Kind: KRegion, Spaces: []int{space}})
	b.emit(Instr{Op: OpGMalloc, Dst: dst, A: CI(int64(space)), B: size})
	return dst
}

// BcastID emits a collective region-id broadcast from root.
func (b *Builder) BcastID(k Type, root, id Operand) int {
	dst := b.LocalTyped(k)
	b.emit(Instr{Op: OpBcastID, Dst: dst, A: root, Src: id})
	return dst
}

// ChangeProto emits a collective protocol change on a space.
func (b *Builder) ChangeProto(space int, protoName string) {
	b.emit(Instr{Op: OpChangeProto, Dst: -1, A: CI(int64(space)), Callee: protoName})
}

// Lock emits a region lock acquire.
func (b *Builder) Lock(region Operand) {
	b.emit(Instr{Op: OpLock, Dst: -1, A: region})
}

// Unlock emits a region lock release.
func (b *Builder) Unlock(region Operand) {
	b.emit(Instr{Op: OpUnlock, Dst: -1, A: region})
}

// Call emits a call to another function; dst < 0 discards the result.
func (b *Builder) Call(dst int, callee string, args ...Operand) {
	b.emit(Instr{Op: OpCall, Dst: dst, Callee: callee, Args: args})
}

// Ret emits a return.
func (b *Builder) Ret(v Operand) {
	b.emit(Instr{Op: OpRet, Dst: -1, A: v})
}

// String renders a function for golden tests and acec output.
func (f *Func) String() string {
	s := fmt.Sprintf("func %s (%d params, %d locals) {\n", f.Name, len(f.Params), f.NumLocals)
	s += renderInstrs(f.Body, "  ")
	return s + "}\n"
}

func renderInstrs(list []Instr, indent string) string {
	var s string
	for _, in := range list {
		s += indent + in.render(indent)
	}
	return s
}

func (in Instr) render(indent string) string {
	direct := ""
	if in.Direct {
		direct = fmt.Sprintf(" [direct:%s]", in.DirectProto)
	}
	if in.Bare {
		direct += " [bare]"
	}
	switch in.Op {
	case OpMove:
		return fmt.Sprintf("l%d = %s\n", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("l%d = %s %s %s\n", in.Dst, in.A, binNames[in.Bin], in.B)
	case OpUn:
		return fmt.Sprintf("l%d = %s(%s)\n", in.Dst, unNames[in.Un], in.A)
	case OpSharedLoad:
		return fmt.Sprintf("l%d = shared<%s> %s[%s]\n", in.Dst, in.ElemKind, in.A, in.B)
	case OpSharedStore:
		return fmt.Sprintf("shared<%s> %s[%s] = %s\n", in.ElemKind, in.A, in.B, in.Src)
	case OpMap:
		return fmt.Sprintf("l%d = ACE_MAP(%s)%s\n", in.Dst, in.A, direct)
	case OpUnmap, OpStartRead, OpEndRead, OpStartWrite, OpEndWrite:
		return fmt.Sprintf("%s(%s)%s\n", opNames[in.Op], in.A, direct)
	case OpLoad:
		return fmt.Sprintf("l%d = %s[%s]<%s>\n", in.Dst, in.A, in.B, in.ElemKind)
	case OpStore:
		return fmt.Sprintf("%s[%s]<%s> = %s\n", in.A, in.B, in.ElemKind, in.Src)
	case OpBarrier:
		return fmt.Sprintf("barrier(space %s)\n", in.A)
	case OpLoop:
		return fmt.Sprintf("for l%d = %s; l%d < %s {\n%s%s}\n",
			in.Dst, in.A, in.Dst, in.B, renderInstrs(in.Body, indent+"  "), indent)
	case OpIf:
		s := fmt.Sprintf("if %s {\n%s%s}", in.A, renderInstrs(in.Body, indent+"  "), indent)
		if len(in.Else) > 0 {
			s += fmt.Sprintf(" else {\n%s%s}", renderInstrs(in.Else, indent+"  "), indent)
		}
		return s + "\n"
	case OpCall:
		return fmt.Sprintf("l%d = %s(%v)\n", in.Dst, in.Callee, in.Args)
	case OpRet:
		return fmt.Sprintf("ret %s\n", in.A)
	case OpGMalloc:
		return fmt.Sprintf("l%d = gmalloc(space %s, %s)\n", in.Dst, in.A, in.B)
	case OpBcastID:
		return fmt.Sprintf("l%d = bcastid(root %s, %s)\n", in.Dst, in.A, in.Src)
	case OpChangeProto:
		return fmt.Sprintf("changeprotocol(space %s, %q)\n", in.A, in.Callee)
	case OpLock, OpUnlock:
		return fmt.Sprintf("%s(%s)\n", opNames[in.Op], in.A)
	}
	return "?\n"
}

// FuncStrings renders every function in the program, sorted by name.
func (p *Program) FuncStrings() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = p.Funcs[n].String()
	}
	return out
}
