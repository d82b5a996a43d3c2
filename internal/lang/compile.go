package lang

import (
	"fmt"

	"github.com/acedsm/ace/internal/ir"
)

// CompileFile lowers a parsed MiniAce file to an IR program, performing
// the language's checks: region-valued expressions admit no arithmetic
// (Section 3.1's pointer restriction), region indexing requires a region
// operand, spaces must be declared, and all names must resolve. It also
// returns the space declarations in id order (the runner creates runtime
// spaces from them).
func CompileFile(f *File) (*ir.Program, []SpaceDecl, error) {
	spaceIDs := map[string]int{}
	spaceProtos := map[int][]string{}
	for i, sd := range f.Spaces {
		if len(sd.Protos) == 0 {
			return nil, nil, fmt.Errorf("line %d: space %s has no protocol", sd.Line, sd.Name)
		}
		if _, dup := spaceIDs[sd.Name]; dup {
			return nil, nil, fmt.Errorf("line %d: duplicate space %s", sd.Line, sd.Name)
		}
		spaceIDs[sd.Name] = i
		spaceProtos[i] = append([]string(nil), sd.Protos...)
	}
	prog := &ir.Program{Funcs: map[string]*ir.Func{}, SpaceProtos: spaceProtos}
	sigs := map[string]*FuncDecl{}
	for _, fd := range f.Funcs {
		if _, dup := sigs[fd.Name]; dup {
			return nil, nil, fmt.Errorf("line %d: duplicate function %s", fd.Line, fd.Name)
		}
		sigs[fd.Name] = fd
	}
	for _, fd := range f.Funcs {
		c := &fnCompiler{spaceIDs: spaceIDs, sigs: sigs}
		irf, err := c.compile(fd)
		if err != nil {
			return nil, nil, err
		}
		prog.Funcs[fd.Name] = irf
	}
	return prog, f.Spaces, nil
}

// Compile parses and lowers MiniAce source.
func Compile(src string) (*ir.Program, []SpaceDecl, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return CompileFile(f)
}

// symbol is a scoped variable binding.
type symbol struct {
	slot int
	typ  TypeExpr
}

// fnCompiler lowers one function.
type fnCompiler struct {
	spaceIDs map[string]int
	sigs     map[string]*FuncDecl
	b        *ir.Builder
	scopes   []map[string]symbol
}

func (c *fnCompiler) compile(fd *FuncDecl) (*ir.Func, error) {
	params := make([]ir.Type, len(fd.Params))
	for i, p := range fd.Params {
		t, err := c.irType(p.Type)
		if err != nil {
			return nil, err
		}
		params[i] = t
	}
	c.b = ir.NewBuilder(fd.Name, params...)
	c.scopes = []map[string]symbol{{}}
	for i, p := range fd.Params {
		if err := c.bind(p.Name, symbol{slot: i, typ: p.Type}, p.Type.Line); err != nil {
			return nil, err
		}
	}
	if err := c.stmts(fd.Body); err != nil {
		return nil, err
	}
	return c.b.Func(), nil
}

// irType converts a source type to an IR type.
func (c *fnCompiler) irType(t TypeExpr) (ir.Type, error) {
	switch t.Name {
	case "int":
		return ir.Type{Kind: ir.KInt}, nil
	case "float":
		return ir.Type{Kind: ir.KFloat}, nil
	case "region":
		id, ok := c.spaceIDs[t.Space]
		if !ok {
			return ir.Type{}, fmt.Errorf("line %d: unknown space %q", t.Line, t.Space)
		}
		out := ir.Type{Kind: ir.KRegion, Spaces: []int{id}}
		if t.Elem != nil && t.Elem.Name == "region" {
			eid, ok := c.spaceIDs[t.Elem.Space]
			if !ok {
				return ir.Type{}, fmt.Errorf("line %d: unknown space %q", t.Elem.Line, t.Elem.Space)
			}
			out.ElemSpaces = []int{eid}
		}
		return out, nil
	}
	return ir.Type{}, fmt.Errorf("line %d: bad type %q", t.Line, t.Name)
}

func (c *fnCompiler) bind(name string, s symbol, line int) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return fmt.Errorf("line %d: %s redeclared", line, name)
	}
	top[name] = s
	return nil
}

func (c *fnCompiler) lookup(name string, line int) (symbol, error) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, nil
		}
	}
	return symbol{}, fmt.Errorf("line %d: undefined variable %q", line, name)
}

func (c *fnCompiler) pushScope() { c.scopes = append(c.scopes, map[string]symbol{}) }
func (c *fnCompiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *fnCompiler) stmts(list []Stmt) error {
	for _, s := range list {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *fnCompiler) stmt(s Stmt) error {
	switch st := s.(type) {
	case *VarStmt:
		t, err := c.irType(st.Type)
		if err != nil {
			return err
		}
		op, vt, err := c.expr(st.Init)
		if err != nil {
			return err
		}
		if err := c.checkAssignable(st.Type, vt, st.Line); err != nil {
			return err
		}
		// Any initializer but a literal or a variable leaves its value in
		// a fresh local: name that local instead of copying it.
		slot := op.Local
		if _, ref := st.Init.(*VarRef); ref || op.IsConst {
			slot = c.b.LocalTyped(t)
			c.b.MoveTo(slot, op)
		} else {
			c.b.SetType(slot, t)
		}
		return c.bind(st.Name, symbol{slot: slot, typ: st.Type}, st.Line)
	case *AssignStmt:
		sym, err := c.lookup(st.Name, st.Line)
		if err != nil {
			return err
		}
		vOp, vt, err := c.expr(st.Value)
		if err != nil {
			return err
		}
		if st.Index == nil {
			if err := c.checkAssignable(sym.typ, vt, st.Line); err != nil {
				return err
			}
			c.b.MoveTo(sym.slot, vOp)
			return nil
		}
		// Region slot store.
		if sym.typ.Name != "region" {
			return fmt.Errorf("line %d: indexing non-region %q", st.Line, st.Name)
		}
		iOp, it, err := c.expr(st.Index)
		if err != nil {
			return err
		}
		if it.Name != "int" {
			return fmt.Errorf("line %d: region index must be int", st.Line)
		}
		elem := regionElem(sym.typ)
		ek, err := c.elemKind(elem, st.Line)
		if err != nil {
			return err
		}
		if err := c.checkAssignable(elem, vt, st.Line); err != nil {
			return err
		}
		c.b.SharedStore(ek, ir.L(sym.slot), iOp, vOp)
		return nil
	case *ForStmt:
		from, ft, err := c.expr(st.From)
		if err != nil {
			return err
		}
		to, tt, err := c.expr(st.To)
		if err != nil {
			return err
		}
		if ft.Name != "int" || tt.Name != "int" {
			return fmt.Errorf("line %d: loop bounds must be int", st.Line)
		}
		v := c.b.Local(ir.KInt)
		c.pushScope()
		if err := c.bind(st.Var, symbol{slot: v, typ: TypeExpr{Name: "int"}}, st.Line); err != nil {
			return err
		}
		var bodyErr error
		c.b.Loop(v, from, to, func() { bodyErr = c.stmts(st.Body) })
		c.popScope()
		return bodyErr
	case *IfStmt:
		cond, ct, err := c.expr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Name != "int" {
			return fmt.Errorf("line %d: condition must be int (boolean)", st.Line)
		}
		var thenErr, elseErr error
		var elseFn func()
		if st.Else != nil {
			elseFn = func() {
				c.pushScope()
				elseErr = c.stmts(st.Else)
				c.popScope()
			}
		}
		c.b.If(cond, func() {
			c.pushScope()
			thenErr = c.stmts(st.Then)
			c.popScope()
		}, elseFn)
		if thenErr != nil {
			return thenErr
		}
		return elseErr
	case *LockStmt:
		op, xt, err := c.expr(st.X)
		if err != nil {
			return err
		}
		if xt.Name != "region" {
			return fmt.Errorf("line %d: lock/unlock needs a region", st.Line)
		}
		if st.Unlock {
			c.b.Unlock(op)
		} else {
			c.b.Lock(op)
		}
		return nil
	case *BarrierStmt:
		id, ok := c.spaceIDs[st.Space]
		if !ok {
			return fmt.Errorf("line %d: unknown space %q", st.Line, st.Space)
		}
		c.b.Barrier(id)
		return nil
	case *ChangeProtoStmt:
		id, ok := c.spaceIDs[st.Space]
		if !ok {
			return fmt.Errorf("line %d: unknown space %q", st.Line, st.Space)
		}
		c.b.ChangeProto(id, st.Proto)
		return nil
	case *ReturnStmt:
		op, _, err := c.expr(st.Value)
		if err != nil {
			return err
		}
		c.b.Ret(op)
		return nil
	case *ExprStmt:
		_, _, err := c.expr(st.X)
		return err
	}
	return fmt.Errorf("line %d: unhandled statement", s.stmtLine())
}

// regionElem returns a region type's element type (float by default).
func regionElem(t TypeExpr) TypeExpr {
	if t.Elem != nil {
		return *t.Elem
	}
	return TypeExpr{Name: "float"}
}

func (c *fnCompiler) elemKind(t TypeExpr, line int) (ir.Kind, error) {
	switch t.Name {
	case "int":
		return ir.KInt, nil
	case "float":
		return ir.KFloat, nil
	case "region":
		return ir.KRegion, nil
	}
	return 0, fmt.Errorf("line %d: bad element type %q", line, t.Name)
}

// checkAssignable enforces kind compatibility (region types must match the
// same space-kind; ints and floats do not mix implicitly except int→float).
func (c *fnCompiler) checkAssignable(dst, src TypeExpr, line int) error {
	if dst.Name == src.Name {
		return nil
	}
	if dst.Name == "float" && src.Name == "int" {
		return nil // widened at use sites by the VM's arithmetic
	}
	return fmt.Errorf("line %d: cannot assign %s to %s", line, src.Name, dst.Name)
}

// expr compiles an expression, returning its operand and source type.
func (c *fnCompiler) expr(e Expr) (ir.Operand, TypeExpr, error) {
	switch ex := e.(type) {
	case *IntLit:
		return ir.CI(ex.V), TypeExpr{Name: "int"}, nil
	case *FloatLit:
		return ir.CF(ex.V), TypeExpr{Name: "float"}, nil
	case *VarRef:
		sym, err := c.lookup(ex.Name, ex.Line)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		return ir.L(sym.slot), sym.typ, nil
	case *IndexExpr:
		sym, err := c.lookup(ex.Name, ex.Line)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if sym.typ.Name != "region" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: indexing non-region %q", ex.Line, ex.Name)
		}
		iOp, it, err := c.expr(ex.Index)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if it.Name != "int" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: region index must be int", ex.Line)
		}
		elem := regionElem(sym.typ)
		ek, err := c.elemKind(elem, ex.Line)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		dst := c.b.SharedLoad(ek, ir.L(sym.slot), iOp)
		return ir.L(dst), elem, nil
	case *UnExpr:
		op, t, err := c.expr(ex.X)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if t.Name == "region" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: no operators on region values", ex.Line)
		}
		switch ex.Op {
		case "-":
			k := ir.KInt
			if t.Name == "float" {
				k = ir.KFloat
			}
			return ir.L(c.b.Un(k, ir.Neg, op)), t, nil
		case "!":
			if t.Name != "int" {
				return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: ! needs int", ex.Line)
			}
			return ir.L(c.b.Un(ir.KInt, ir.Not, op)), t, nil
		}
		return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: bad unary %q", ex.Line, ex.Op)
	case *BinExpr:
		lOp, lt, err := c.expr(ex.L)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		rOp, rt, err := c.expr(ex.R)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		// Table 1 / Section 3.1: no arithmetic on pointers to shared data.
		if lt.Name == "region" || rt.Name == "region" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: arithmetic on shared pointers is not allowed", ex.Line)
		}
		bin, isCmp, err := binOpFor(ex.Op, ex.Line)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		resT := TypeExpr{Name: "int"}
		k := ir.KInt
		if !isCmp && (lt.Name == "float" || rt.Name == "float") {
			resT = TypeExpr{Name: "float"}
			k = ir.KFloat
		}
		// Normalize > and >= by swapping.
		if ex.Op == ">" {
			lOp, rOp = rOp, lOp
		}
		if ex.Op == ">=" {
			lOp, rOp = rOp, lOp
		}
		return ir.L(c.b.Bin(k, bin, lOp, rOp)), resT, nil
	case *CallExpr:
		return c.call(ex)
	}
	return ir.Operand{}, TypeExpr{}, fmt.Errorf("unhandled expression")
}

func binOpFor(op string, line int) (ir.BinOp, bool, error) {
	switch op {
	case "+":
		return ir.Add, false, nil
	case "-":
		return ir.Sub, false, nil
	case "*":
		return ir.Mul, false, nil
	case "/":
		return ir.Div, false, nil
	case "%":
		return ir.Mod, false, nil
	case "<", ">":
		return ir.Lt, true, nil
	case "<=", ">=":
		return ir.Le, true, nil
	case "==":
		return ir.Eq, true, nil
	case "!=":
		return ir.Ne, true, nil
	case "&&":
		return ir.And, true, nil
	case "||":
		return ir.Or, true, nil
	}
	return 0, false, fmt.Errorf("line %d: bad operator %q", line, op)
}

// call compiles builtins and user function calls.
func (c *fnCompiler) call(ex *CallExpr) (ir.Operand, TypeExpr, error) {
	switch ex.Name {
	case "gmalloc":
		if len(ex.Args) != 2 {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: gmalloc(space, size)", ex.Line)
		}
		ref, ok := ex.Args[0].(*VarRef)
		if !ok {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: gmalloc needs a space name", ex.Line)
		}
		id, ok := c.spaceIDs[ref.Name]
		if !ok {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: unknown space %q", ex.Line, ref.Name)
		}
		size, st, err := c.expr(ex.Args[1])
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if st.Name != "int" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: gmalloc size must be int", ex.Line)
		}
		dst := c.b.GMalloc(id, size)
		return ir.L(dst), TypeExpr{Name: "region", Space: ref.Name}, nil
	case "bcastid":
		if len(ex.Args) != 2 {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: bcastid(root, id)", ex.Line)
		}
		root, rt, err := c.expr(ex.Args[0])
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if rt.Name != "int" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: bcastid root must be int", ex.Line)
		}
		id, it, err := c.expr(ex.Args[1])
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		if it.Name != "region" {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: bcastid needs a region", ex.Line)
		}
		t, err := c.irType(it)
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		dst := c.b.BcastID(t, root, id)
		return ir.L(dst), it, nil
	case "sqrt":
		if len(ex.Args) != 1 {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: sqrt(x)", ex.Line)
		}
		x, _, err := c.expr(ex.Args[0])
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		return ir.L(c.b.Un(ir.KFloat, ir.Sqrt, x)), TypeExpr{Name: "float"}, nil
	case "float":
		if len(ex.Args) != 1 {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: float(x)", ex.Line)
		}
		x, _, err := c.expr(ex.Args[0])
		if err != nil {
			return ir.Operand{}, TypeExpr{}, err
		}
		return ir.L(c.b.Un(ir.KFloat, ir.IntToFloat, x)), TypeExpr{Name: "float"}, nil
	default:
		fd, ok := c.sigs[ex.Name]
		if !ok {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: unknown function %q", ex.Line, ex.Name)
		}
		if len(ex.Args) != len(fd.Params) {
			return ir.Operand{}, TypeExpr{}, fmt.Errorf("line %d: %s expects %d args", ex.Line, ex.Name, len(fd.Params))
		}
		args := make([]ir.Operand, len(ex.Args))
		for i, a := range ex.Args {
			op, at, err := c.expr(a)
			if err != nil {
				return ir.Operand{}, TypeExpr{}, err
			}
			if err := c.checkAssignable(fd.Params[i].Type, at, ex.Line); err != nil {
				return ir.Operand{}, TypeExpr{}, err
			}
			args[i] = op
		}
		ret := TypeExpr{Name: "int"}
		retKind := ir.KInt
		if fd.Ret != nil {
			ret = *fd.Ret
			var err error
			retKind, err = c.elemKind(ret, ex.Line)
			if err != nil {
				return ir.Operand{}, TypeExpr{}, err
			}
		}
		dst := c.b.Local(retKind)
		c.b.Call(dst, ex.Name, args...)
		return ir.L(dst), ret, nil
	}
}
