package compile

// The lowering pass: every AST statement becomes one pre-bound closure,
// each statement kind lowered once. Lowering mirrors the tree-walking
// interpreter (internal/core/interp) exactly — same evaluation order,
// same coercions, same runtime error messages and positions — so that
// switching a tool between execution paths is unobservable. Where the
// interpreter resolves a name or a declared type per evaluation, lowering
// resolves it once and bakes the slot index or *types.Type into the
// closure. Numeric locals live in int64 registers, and numeric containers
// named by a cell are read and written unboxed: a dict of numeric key and
// element types through its int64 map (value.DictVal.Ints), which every
// such dict has because a container is assignable only from one of
// matching key and element types (types.AssignableTo).
//
// Two statement shapes get their own closures: the dict bump
// `d[k] = d[k] ± e` on a numeric dict is one `m[k] ± e` map update, and
// the counted loop `for (int i = c; i < v.size(); i = i + 1)` whose body
// never assigns i runs as a native Go loop over its register.

import (
	"fmt"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
)

func errf(pos token.Pos, format string, args ...any) error {
	return &interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *compiler) stmts(stmts []ast.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, c.stmt(s))
	}
	return out
}

// run executes a statement list, stopping at the first error.
func run(fr *frame, stmts []stmtFn) error {
	for _, f := range stmts {
		if err := f(fr); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s ast.Stmt) stmtFn {
	switch st := s.(type) {
	case *ast.DeclStmt:
		return c.decl(st.Decl)
	case *ast.AssignStmt:
		return c.assign(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if f := c.callStmt(call); f != nil {
				return f
			}
		}
		x := c.val(st.X)
		return func(fr *frame) error {
			_, err := x(fr)
			return err
		}
	case *ast.IfStmt:
		cond := c.cond(st.Cond)
		c.pushScope()
		then := c.stmts(st.Then)
		c.popScope()
		c.pushScope()
		els := c.stmts(st.Else)
		c.popScope()
		return func(fr *frame) error {
			b, err := cond(fr)
			if err != nil {
				return err
			}
			if b {
				return run(fr, then)
			}
			return run(fr, els)
		}
	case *ast.ForStmt:
		// The for header lives in its own scope; the body opens another
		// one (re-declarations re-initialize their slots).
		c.pushScope()
		defer c.popScope()
		var init stmtFn
		if st.Init != nil {
			init = c.stmt(st.Init)
		}
		if f := c.countedLoop(st, init); f != nil {
			return f
		}
		var cond boolFn
		if st.Cond != nil {
			cond = c.cond(st.Cond)
		}
		c.pushScope()
		body := c.stmts(st.Body)
		c.popScope()
		var post stmtFn
		if st.Post != nil {
			post = c.stmt(st.Post)
		}
		pos := st.P
		return func(fr *frame) error {
			if init != nil {
				if err := init(fr); err != nil {
					return err
				}
			}
			for iters := 0; ; iters++ {
				if iters >= interp.MaxLoopIters {
					return errf(pos, "for statement exceeded %d iterations", interp.MaxLoopIters)
				}
				if cond != nil {
					b, err := cond(fr)
					if err != nil || !b {
						return err
					}
				}
				if err := run(fr, body); err != nil {
					return err
				}
				if post != nil {
					if err := post(fr); err != nil {
						return err
					}
				}
			}
		}
	}
	pos := s.Pos()
	return func(*frame) error { return errf(pos, "invalid statement") }
}

// countedLoop lowers `for (int i = c; i < v.size(); i = i + 1)` on a
// container cell v, whose body never assigns i, to a native Go loop: i
// lives in a Go local that is copied into its register for the body to
// read, the size test reads v's length in place, and no closure runs
// outside the body. v is re-read every iteration, as the plain condition
// does, so a body that grows it is still seen. nil when st does not have
// the shape. init is the lowered header declaration; the caller has
// opened the header scope.
func (c *compiler) countedLoop(st *ast.ForStmt, init stmtFn) stmtFn {
	d, _ := st.Init.(*ast.DeclStmt)
	cond, _ := st.Cond.(*ast.BinaryExpr)
	if d == nil || cond == nil || cond.Op != token.LT || !identNamed(cond.X, d.Decl.Name) {
		return nil
	}
	name := d.Decl.Name
	if !isIncrement(st.Post, name) || assignsName(st.Body, name) {
		return nil
	}
	call, _ := cond.Y.(*ast.CallExpr)
	if call == nil {
		return nil
	}
	fun, _ := call.Fun.(*ast.FieldExpr)
	if fun == nil || fun.Name != "size" {
		return nil
	}
	recv, ok := c.cellOf(fun.X)
	sl, _ := c.resolve(name)
	if !ok || sl.kind != slotReg {
		return nil
	}
	reg := sl.idx
	c.pushScope()
	body := c.stmts(st.Body)
	c.popScope()
	pos, sizePos := st.P, call.P
	return func(fr *frame) error {
		if err := init(fr); err != nil {
			return err
		}
		for i, iters := fr.regs[reg], 0; ; i, iters = i+1, iters+1 {
			if iters >= interp.MaxLoopIters {
				return errf(pos, "for statement exceeded %d iterations", interp.MaxLoopIters)
			}
			n, ok := sizeOf(fr.cells[recv])
			if !ok {
				return errf(sizePos, "invalid method %q", "size")
			}
			if i >= n {
				return nil
			}
			fr.regs[reg] = i
			if err := run(fr, body); err != nil {
				return err
			}
		}
	}
}

func litInt(e ast.Expr) (int64, bool) {
	if l, ok := e.(*ast.IntLit); ok {
		return l.Val, true
	}
	return 0, false
}

func identNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isIncrement reports whether s is `name = name + 1`.
func isIncrement(s ast.Stmt, name string) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || !identNamed(as.LHS, name) {
		return false
	}
	bin, ok := as.RHS.(*ast.BinaryExpr)
	if !ok || bin.Op != token.PLUS || !identNamed(bin.X, name) {
		return false
	}
	one, ok := litInt(bin.Y)
	return ok && one == 1
}

// assignsName reports whether any statement in stmts, at any depth,
// assigns an identifier called name. Shadowing declarations are not told
// apart, which errs towards a plain loop.
func assignsName(stmts []ast.Stmt, name string) bool {
	found := false
	ast.WalkStmts(stmts, func(s ast.Stmt) {
		if as, ok := s.(*ast.AssignStmt); ok && identNamed(as.LHS, name) {
			found = true
		}
	}, nil)
	return found
}

func (c *compiler) decl(d *ast.VarDecl) stmtFn {
	t := c.info.DeclTypes[d]
	if t == nil {
		pos, name := d.P, d.Name
		return func(*frame) error {
			return errf(pos, "internal: declaration %s has no type", name)
		}
	}
	// The initializer is compiled before the name is defined: a
	// declaration cannot reference itself, it sees the outer binding.
	if t.IsNumeric() {
		init := litOperand(0)
		if d.Init != nil {
			init = c.num(d.Init)
		}
		reg := c.defineLocal(d.Name, t).idx
		return func(fr *frame) error {
			n, ok := init.leaf(fr)
			if !ok {
				var err error
				if n, err = init.fn(fr); err != nil {
					return err
				}
			}
			fr.regs[reg] = n
			return nil
		}
	}
	var init exprFn
	if d.Init != nil {
		init = c.val(d.Init)
	}
	idx := c.defineLocal(d.Name, t).idx
	if init == nil {
		return func(fr *frame) error {
			fr.locals[idx] = interp.ZeroValue(t)
			return nil
		}
	}
	return func(fr *frame) error {
		v, err := init(fr)
		if err != nil {
			return err
		}
		fr.locals[idx] = interp.Convert(v, t)
		return nil
	}
}

func (c *compiler) assign(st *ast.AssignStmt) stmtFn {
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		// The RHS evaluates before the target resolves, as in the
		// interpreter; a numeric target stores its operand unboxed into a
		// register or as a KInt into a cell (Convert for a numeric type).
		t := c.typeOf(lhs)
		if t.IsNumeric() {
			rhs := c.num(st.RHS)
			sl, ok := c.resolve(lhs.Name)
			switch idx := sl.idx; {
			case ok && sl.kind == slotReg:
				return func(fr *frame) error {
					n, ok := rhs.leaf(fr)
					if !ok {
						var err error
						if n, err = rhs.fn(fr); err != nil {
							return err
						}
					}
					fr.regs[idx] = n
					return nil
				}
			case ok && sl.kind == slotCell:
				return func(fr *frame) error {
					n, ok := rhs.leaf(fr)
					if !ok {
						var err error
						if n, err = rhs.fn(fr); err != nil {
							return err
						}
					}
					*fr.cells[idx] = value.Value{Kind: value.KInt, Int: n}
					return nil
				}
			}
		}
		rhs := c.val(st.RHS)
		sl, ok := c.resolve(lhs.Name)
		if !ok {
			pos, name := lhs.P, lhs.Name
			return func(fr *frame) error {
				if _, err := rhs(fr); err != nil {
					return err
				}
				return errf(pos, "undefined: %s", name)
			}
		}
		idx, local := sl.idx, sl.kind == slotLocal
		return func(fr *frame) error {
			v, err := rhs(fr)
			if err != nil {
				return err
			}
			if local {
				fr.locals[idx] = interp.Convert(v, t)
			} else {
				*fr.cells[idx] = interp.Convert(v, t)
			}
			return nil
		}
	case *ast.IndexExpr:
		if f := c.storeInt(st, lhs); f != nil {
			return f
		}
		// The RHS evaluates first, then the base, then the index.
		rhs := c.val(st.RHS)
		base := c.val(lhs.X)
		index := c.val(lhs.Index)
		elemT := c.elemTypeOf(lhs.X)
		pos := lhs.P
		return func(fr *frame) error {
			rv, err := rhs(fr)
			if err != nil {
				return err
			}
			bv, err := base(fr)
			if err != nil {
				return err
			}
			iv, err := index(fr)
			if err != nil {
				return err
			}
			switch bv.Kind {
			case value.KDict:
				bv.Dict.Set(iv, interp.Convert(rv, elemT))
				return nil
			case value.KArray, value.KVector:
				elems, what := elemsOf(&bv)
				i := iv.AsInt()
				if i < 0 || i >= int64(len(elems)) {
					return errf(pos, "%s index %d out of range [0,%d)", what, i, len(elems))
				}
				elems[i] = interp.Convert(rv, elemT)
				return nil
			}
			return errf(pos, "value is not indexable")
		}
	}
	rhs := c.val(st.RHS)
	pos := st.P
	return func(fr *frame) error {
		if _, err := rhs(fr); err != nil {
			return err
		}
		return errf(pos, "invalid assignment target")
	}
}

// storeInt lowers `v[k] = e` into a container cell of numeric elements
// (and, for a dict, numeric keys) unboxed, in the interpreter's order:
// e, then the base, then k; nil for any other store.
func (c *compiler) storeInt(st *ast.AssignStmt, lhs *ast.IndexExpr) stmtFn {
	t := c.typeOf(lhs.X)
	if t.Elem == nil || !t.Elem.IsNumeric() || t.Kind == types.Dict && !t.Key.IsNumeric() {
		return nil
	}
	if t.Kind == types.Dict {
		if f := c.dictBump(st, lhs); f != nil {
			return f
		}
	}
	idx, ok := c.cellOf(lhs.X)
	if !ok {
		return nil
	}
	rhs := c.num(st.RHS)
	key := c.num(lhs.Index)
	pos := lhs.P
	switch t.Kind {
	case types.Dict:
		return func(fr *frame) error {
			n, err := rhs.get(fr)
			if err != nil {
				return err
			}
			bv := fr.cells[idx]
			k, err := key.get(fr)
			if err != nil {
				return err
			}
			if bv.Kind != value.KDict {
				return errf(pos, "value is not indexable")
			}
			bv.Dict.Ints[k] = n
			return nil
		}
	case types.Array, types.Vector:
		kind := value.KArray
		if t.Kind == types.Vector {
			kind = value.KVector
		}
		return func(fr *frame) error {
			n, err := rhs.get(fr)
			if err != nil {
				return err
			}
			bv := fr.cells[idx]
			i, err := key.get(fr)
			if err != nil {
				return err
			}
			if bv.Kind != kind {
				return errf(pos, "value is not indexable")
			}
			elems, what := elemsOf(bv)
			if i < 0 || i >= int64(len(elems)) {
				return errf(pos, "%s index %d out of range [0,%d)", what, i, len(elems))
			}
			elems[i] = value.Value{Kind: value.KInt, Int: n}
			return nil
		}
	}
	return nil
}

// elemsOf returns the elements of an array or vector value and its kind's
// name for an out-of-range error.
func elemsOf(bv *value.Value) ([]value.Value, string) {
	if bv.Kind == value.KVector {
		return bv.Vec.Elems, "vector"
	}
	return bv.Arr.Elems, "array"
}

// dictBump lowers `d[k] = d[k] ± e` on a numeric dict cell d, with k a
// leaf, to one map update. The interpreter reads d[k] (kind check at the
// read), evaluates e, then stores; e cannot write d or k, so reading the
// element after e, as the update does, sees the same value, and an error
// in e still leaves d untouched. nil when st has another shape.
func (c *compiler) dictBump(st *ast.AssignStmt, lhs *ast.IndexExpr) stmtFn {
	bin, ok := st.RHS.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.PLUS && bin.Op != token.MINUS) {
		return nil
	}
	read, ok := bin.X.(*ast.IndexExpr)
	base, _ := lhs.X.(*ast.Ident)
	if !ok || base == nil || !identNamed(read.X, base.Name) {
		return nil
	}
	idx, ok := c.cellOf(base)
	if !ok {
		return nil
	}
	key := c.num(read.Index)
	if other := c.num(lhs.Index); key.kind == notLeaf || key.kind != other.kind || key.idx != other.idx || key.n != other.n {
		return nil
	}
	e := c.num(bin.Y)
	neg, pos := bin.Op == token.MINUS, read.P
	return func(fr *frame) error {
		bv := fr.cells[idx]
		k, ok := key.leaf(fr)
		if !ok {
			var err error
			if k, err = key.fn(fr); err != nil {
				return err
			}
		}
		if bv.Kind != value.KDict {
			return errf(pos, "value is not indexable")
		}
		n, ok := e.leaf(fr)
		if !ok {
			var err error
			if n, err = e.fn(fr); err != nil {
				return err
			}
		}
		if neg {
			n = -n
		}
		bv.Dict.Ints[k] += n
		return nil
	}
}

// callStmt lowers the calls that are statements — print, writeToFile
// and a vector's add; nil for any other call.
func (c *compiler) callStmt(x *ast.CallExpr) stmtFn {
	switch fun := x.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "print":
			args := make([]exprFn, len(x.Args))
			for i, a := range x.Args {
				args[i] = c.val(a)
			}
			return func(fr *frame) error {
				parts := make([]string, len(args))
				for i, a := range args {
					v, err := a(fr)
					if err != nil {
						return err
					}
					parts[i] = v.String()
				}
				fmt.Fprintln(fr.out, strings.Join(parts, " "))
				return nil
			}
		case "writeToFile":
			file, val := c.val(x.Args[0]), c.val(x.Args[1])
			pos := x.P
			return func(fr *frame) error {
				fv, err := file(fr)
				if err != nil {
					return err
				}
				vv, err := val(fr)
				if err != nil {
					return err
				}
				if fv.Kind != value.KFile {
					return errf(pos, "writeToFile requires a file")
				}
				fv.File.WriteLine(vv.String())
				return nil
			}
		}
	case *ast.FieldExpr:
		if fun.Name == "add" {
			return c.vecAdd(x, fun)
		}
	}
	return nil
}

// vecAdd lowers v.add(x), which appends Convert(x, elem): on a numeric
// vector cell that is IntVal(AsInt(x)), appended unboxed (so NULL
// appends 0). The receiver's kind is checked before the argument is
// evaluated.
func (c *compiler) vecAdd(x *ast.CallExpr, fun *ast.FieldExpr) stmtFn {
	pos, name := x.P, fun.Name
	elemT := c.elemTypeOf(fun.X)
	if idx, ok := c.cellOf(fun.X); ok && c.typeOf(fun.X).Kind == types.Vector && elemT.IsNumeric() {
		arg := c.num(x.Args[0])
		return func(fr *frame) error {
			rv := fr.cells[idx]
			if rv.Kind != value.KVector {
				return errf(pos, "invalid method %q", name)
			}
			n, err := arg.get(fr)
			if err != nil {
				return err
			}
			rv.Vec.Elems = append(rv.Vec.Elems, value.Value{Kind: value.KInt, Int: n})
			return nil
		}
	}
	recv, arg := c.val(fun.X), c.val(x.Args[0])
	return func(fr *frame) error {
		rv, err := recv(fr)
		if err != nil {
			return err
		}
		if rv.Kind != value.KVector {
			return errf(pos, "invalid method %q", name)
		}
		v, err := arg(fr)
		if err != nil {
			return err
		}
		rv.Vec.Add(interp.Convert(v, elemT))
		return nil
	}
}
