package compile

// The whole-body fast tier. lower_int.go removes Value copies from
// individual scalar subtrees; this file goes further and lowers entire
// action bodies — statements included — into closures that keep every
// intermediate value an unboxed int64, boxing only at stores to cells.
// Body locals, which are always numeric here, live in an int64 register
// slice on the frame instead of Value slots; numeric-keyed dicts with
// numeric elements are read and written through their int64 map
// (value.DictVal.Ints), which every such dict has because a container
// is assignable only from one of matching key and element types
// (types.AssignableTo); numeric vectors are scanned and appended as
// int64s; and every comparison and arithmetic operator gets its own
// closure. The VM's inline tier (internal/vm) invokes these bodies from
// specialized probe thunks, so the whole fire costs a few direct calls
// instead of a chain of Value-copying closure boundaries.
//
// Operands are specialized twice:
//
//   - Leaf operands. A literal, a register, a numeric cell or a dynamic
//     attribute is a leaf: an operand descriptor (lower_int.go) that the
//     consuming operator, index, store or has closure reads in place.
//     Only a non-leaf operand costs a closure call.
//   - Bind-time constants. A numeric static attribute of a CFE variable
//     (I.nextaddr, L.id, B.ninsts) is fixed for its placement: CFE
//     variables cannot be assigned. The fast pass gives each one a
//     register that Bind fills from the placement's CFE, so it is a
//     register leaf wherever a literal may stand, including as a counter
//     addend. A placement whose attribute does not resolve to an integer
//     keeps only the generic lowering.
//
// Two statement shapes get their own closures: the dict bump
// `d[k] = d[k] ± e` with a leaf k on a numeric dict is one `m[k] ± e`
// map update, and the counted loop
// `for (int i = c; i < v.size(); i = i + 1)` whose body never assigns i
// runs as a native Go loop over its register.
//
// The contract mirrors lower_int.go's, strengthened in one way: a fast
// lowering of expression e returns AsInt() (or AsBool()) of the value the
// generic lowering would produce, with identical evaluation order, side
// effects, runtime error messages and positions, AND the generic value is
// guaranteed to be integer-shaped (KInt or KNull) wherever the result
// feeds a comparison or a truth test — which is what makes the unboxed
// comparisons below bit-identical to the generic path (value.Equal
// coincides with plain int64 comparison on such values). A dict converts
// every key to its key type, AsInt for a numeric one, so an int64 key
// needs no such guarantee; nor does the argument of a numeric vector's
// has or add, which the generic path converts to IntVal(AsInt) first.
// compileFastBody returns nil whenever any construct in the body cannot
// meet that bar, and the caller keeps only the generic lowering.
//
// The fast pass also classifies additive bodies — every statement a
// `c = c ± k` bump — so the VM can count their firings in an accumulator
// and apply all bumps at once when it flushes (see Bound.CounterShape and
// internal/vm's register-promoted counters).

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
)

// fastStmt executes one fast-lowered statement.
type fastStmt func(fr *frame) error

// fastBool evaluates an expression to its truth coercion.
type fastBool func(fr *frame) (bool, error)

// fastStr renders one print() argument exactly as Value.String would.
type fastStr func(fr *frame) (string, error)

// fastBody is the whole-body fast lowering of one action. It shares the
// generic lowering's cells; its locals are the registers.
type fastBody struct {
	nLocals int
	// consts are the body's bind-time constants, filled into their
	// registers by Bind.
	consts []bindConst
	guard  fastBool
	stmts  []fastStmt

	// counter lists the bumps of an additive body in statement order
	// (nil when the body is not additive; see classifyCounter).
	counter []counterTerm
}

// bindConst is one bind-time constant: static attribute attr of the CFE
// held in cell, stored in register reg.
type bindConst struct {
	cell int
	attr string
	reg  int
}

// counterTerm is one `c = c ± k` statement of an additive body, in
// cell indices.
type counterTerm struct {
	// cell holds c — or, when elem >= 0, the array whose element elem
	// is c.
	cell, elem int
	// k is the literal addend; when kCell >= 0 the addend is that
	// captured cell instead, and when kReg >= 0 that bind-time constant.
	// neg subtracts the addend.
	k           int64
	kCell, kReg int
	neg         bool
}

// compileFastBody attempts the whole-body fast lowering; nil means some
// construct has no fast path and the body stays generic-only.
func (c *compiler) compileFastBody(body []ast.Stmt, guard ast.Expr) *fastBody {
	c.pushScope()
	fb := &fastBody{}
	if guard != nil {
		if fb.guard = c.fastBoolExpr(guard); fb.guard == nil {
			return nil
		}
	}
	stmts, ok := c.fastStmts(body)
	if !ok {
		return nil
	}
	c.classifyCounter(fb, body, guard)
	fb.stmts = stmts
	fb.nLocals = c.nLocals
	fb.consts = c.consts
	return fb
}

// bindConsts fills the bind-time constant registers from the placement's
// cells; false when some attribute does not resolve to an integer, which
// leaves the placement generic-only.
func (fb *fastBody) bindConsts(fr *frame) bool {
	for _, k := range fb.consts {
		v, ok := k.resolve(fr.cells[k.cell])
		if !ok {
			return false
		}
		fr.regs[k.reg] = v
	}
	return true
}

// resolve reads the constant from the value of its CFE cell; false when
// the attribute does not resolve to an integer.
func (k bindConst) resolve(cv *value.Value) (int64, bool) {
	if cv.Kind != value.KCFE {
		return 0, false
	}
	v, err := interp.StaticAttr(cv.CFE, k.attr)
	if err != nil || v.Kind != value.KInt {
		return 0, false
	}
	return v.Int, true
}

// cellSlot resolves a name that must be a cell: the fast tier's locals
// are int64 registers, so a container or bool is always a cell.
func (c *compiler) cellSlot(name string) (int, bool) {
	sl, ok := c.resolve(name)
	if !ok || sl.local {
		return 0, false
	}
	return sl.idx, true
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

// classifyCounter recognizes an additive body: no guard, and every
// statement `c = c + k`, `c = k + c` or `c = c - k`, where
//
//   - c is a numeric global or captured scalar, or A[i] for a global or
//     captured static array A of numeric elements that the program never
//     rebinds, with i an integer literal in [0, len(A)) — an
//     out-of-range literal stays generic so its runtime error is still
//     recorded;
//   - k is an integer literal, a bind-time constant, or a captured
//     numeric scalar that no statement of the body assigns. Captured
//     cells are private to their placement, so nothing else can change
//     such a k between firings. A global k never qualifies: another
//     action may write it between firings, and a deferred flush would
//     read the later value.
//
// n generic firings from any start state then leave each c at
// KInt(AsInt(c) + n*k) per statement (int64 arithmetic wraps), which is
// exactly what one Flush(n) produces.
func (c *compiler) classifyCounter(fb *fastBody, body []ast.Stmt, guard ast.Expr) {
	if guard != nil || len(body) == 0 {
		return
	}
	terms := make([]counterTerm, len(body))
	assigned := make(map[int]bool)
	for i, s := range body {
		t, ok := c.counterStmt(s)
		if !ok {
			return
		}
		if t.elem < 0 {
			assigned[t.cell] = true
		}
		terms[i] = t
	}
	for _, t := range terms {
		if t.kCell >= 0 && assigned[t.kCell] {
			return
		}
	}
	fb.counter = terms
}

// counterStmt matches one statement of an additive body.
func (c *compiler) counterStmt(s ast.Stmt) (counterTerm, bool) {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return counterTerm{}, false
	}
	bin, ok := as.RHS.(*ast.BinaryExpr)
	if !ok {
		return counterTerm{}, false
	}
	t := counterTerm{elem: -1, kCell: -1, kReg: -1}
	var k ast.Expr
	switch {
	case (bin.Op == token.PLUS || bin.Op == token.MINUS) && sameTarget(bin.X, as.LHS):
		k, t.neg = bin.Y, bin.Op == token.MINUS
	case bin.Op == token.PLUS && sameTarget(bin.Y, as.LHS):
		k = bin.X
	default:
		return counterTerm{}, false
	}
	switch lhs := as.LHS.(type) {
	case *ast.Ident:
		sl, ok := c.resolve(lhs.Name)
		if ty := c.info.Types[lhs]; !ok || sl.local || ty == nil || !ty.IsNumeric() {
			return counterTerm{}, false
		}
		t.cell = sl.idx
	case *ast.IndexExpr:
		id := lhs.X.(*ast.Ident) // sameTarget matched an identifier base
		ty := c.info.Types[lhs.X]
		if ty == nil || ty.Kind != types.Array || !ty.Elem.IsNumeric() || c.rebound[id.Name] {
			return counterTerm{}, false
		}
		i, _ := litInt(lhs.Index)
		sl, ok := c.resolve(id.Name)
		if !ok || sl.local || i < 0 || i >= int64(ty.Len) {
			return counterTerm{}, false
		}
		t.cell, t.elem = sl.idx, int(i)
	}
	if n, ok := litInt(k); ok {
		t.k = n
		return t, true
	}
	if f, ok := k.(*ast.FieldExpr); ok {
		o := c.constOperand(f)
		t.kReg = o.idx
		return t, o.kind == leafReg
	}
	id, ok := k.(*ast.Ident)
	if !ok {
		return counterTerm{}, false
	}
	sl, ok := c.resolve(id.Name)
	if ty := c.info.Types[k]; !ok || sl.local || c.cells[sl.idx].Global || ty == nil || !ty.IsNumeric() {
		return counterTerm{}, false
	}
	t.kCell = sl.idx
	return t, true
}

// sameTarget reports whether e reads exactly the storage lhs names: the
// same identifier, or the same identifier indexed by the same literal.
func sameTarget(e, lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		return identNamed(e, l.Name)
	case *ast.IndexExpr:
		x, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		base, ok := l.X.(*ast.Ident)
		if !ok || !identNamed(x.X, base.Name) {
			return false
		}
		i, ok := litInt(l.Index)
		j, ok2 := litInt(x.Index)
		return ok && ok2 && i == j
	}
	return false
}

func (c *compiler) fastStmts(stmts []ast.Stmt) ([]fastStmt, bool) {
	out := make([]fastStmt, 0, len(stmts))
	for _, s := range stmts {
		f := c.fastStmt(s)
		if f == nil {
			return nil, false
		}
		out = append(out, f)
	}
	return out, true
}

func (c *compiler) fastStmt(s ast.Stmt) fastStmt {
	switch st := s.(type) {
	case *ast.DeclStmt:
		return c.fastDecl(st.Decl)
	case *ast.AssignStmt:
		return c.fastAssign(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "print" {
					return c.fastPrint(call)
				}
			case *ast.FieldExpr:
				if fun.Name == "add" {
					return c.fastVecAdd(call, fun)
				}
			}
		}
		return nil
	case *ast.IfStmt:
		cond := c.fastBoolExpr(st.Cond)
		if cond == nil {
			return nil
		}
		c.pushScope()
		then, ok := c.fastStmts(st.Then)
		c.popScope()
		if !ok {
			return nil
		}
		c.pushScope()
		els, ok := c.fastStmts(st.Else)
		c.popScope()
		if !ok {
			return nil
		}
		return func(fr *frame) error {
			b, err := cond(fr)
			if err != nil {
				return err
			}
			branch := then
			if !b {
				branch = els
			}
			for _, f := range branch {
				if err := f(fr); err != nil {
					return err
				}
			}
			return nil
		}
	case *ast.ForStmt:
		// Scope structure mirrors the generic lowering: header scope, one
		// body scope (registers are re-initialized by their declarations).
		c.pushScope()
		defer c.popScope()
		var init fastStmt
		if st.Init != nil {
			if init = c.fastStmt(st.Init); init == nil {
				return nil
			}
		}
		if f, ok := c.countedLoop(st, init); ok {
			return f
		}
		var cond fastBool
		if st.Cond != nil {
			if cond = c.fastBoolExpr(st.Cond); cond == nil {
				return nil
			}
		}
		c.pushScope()
		body, ok := c.fastStmts(st.Body)
		c.popScope()
		if !ok {
			return nil
		}
		var post fastStmt
		if st.Post != nil {
			if post = c.fastStmt(st.Post); post == nil {
				return nil
			}
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
					if err != nil {
						return err
					}
					if !b {
						return nil
					}
				}
				for _, f := range body {
					if err := f(fr); err != nil {
						return err
					}
				}
				if post != nil {
					if err := post(fr); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// countedLoop lowers `for (int i = c; i < v.size(); i = i + 1)`, whose
// body never assigns i, to a native Go loop: i lives in a Go local that
// is copied into its register for the body to read, the size test reads
// v's length in place, and no closure runs outside the body. v is
// re-read every iteration, as the generic condition does, so a body that
// grows it is still seen. ok is false when st does not have the shape
// (the caller lowers it as a plain loop); f is nil with ok true when the
// body has no fast lowering (the whole body then stays generic). init
// is the lowered header declaration; the caller has opened the header
// scope.
func (c *compiler) countedLoop(st *ast.ForStmt, init fastStmt) (f fastStmt, ok bool) {
	d, _ := st.Init.(*ast.DeclStmt)
	cond, _ := st.Cond.(*ast.BinaryExpr)
	if d == nil || init == nil || cond == nil || cond.Op != token.LT || !identNamed(cond.X, d.Decl.Name) {
		return nil, false
	}
	name := d.Decl.Name
	if !isIncrement(st.Post, name) || assignsName(st.Body, name) {
		return nil, false
	}
	call, _ := cond.Y.(*ast.CallExpr)
	if call == nil || c.fastSize(call) == nil {
		return nil, false
	}
	recv, _ := c.cellSlot(call.Fun.(*ast.FieldExpr).X.(*ast.Ident).Name)
	sl, _ := c.resolve(name)
	if !sl.local {
		return nil, false
	}
	reg := sl.idx
	c.pushScope()
	body, bodyOK := c.fastStmts(st.Body)
	c.popScope()
	if !bodyOK {
		return nil, true
	}
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
			for _, f := range body {
				if err := f(fr); err != nil {
					return err
				}
			}
		}
	}, true
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

func (c *compiler) fastDecl(d *ast.VarDecl) fastStmt {
	t := c.info.DeclTypes[d]
	if t == nil || !t.IsNumeric() {
		return nil
	}
	// As in the generic pass, the initializer resolves before the name is
	// defined.
	var init operand
	if d.Init != nil {
		if init = c.fastOperand(d.Init); !init.ok() {
			return nil
		}
	}
	idx := c.defineLocal(d.Name)
	if d.Init == nil {
		return func(fr *frame) error {
			fr.regs[idx] = 0
			return nil
		}
	}
	return func(fr *frame) error {
		n, ok := init.leaf(fr)
		if !ok {
			var err error
			if n, err = init.fn(fr); err != nil {
				return err
			}
		}
		fr.regs[idx] = n
		return nil
	}
}

func (c *compiler) fastAssign(st *ast.AssignStmt) fastStmt {
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		t := c.info.Types[st.LHS]
		if t == nil || !t.IsNumeric() {
			return nil
		}
		sl, ok := c.resolve(lhs.Name)
		if !ok {
			return nil
		}
		rhs := c.fastOperand(st.RHS)
		if !rhs.ok() {
			return nil
		}
		idx := sl.idx
		if sl.local {
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
		}
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
	case *ast.IndexExpr:
		id, ok := lhs.X.(*ast.Ident)
		if !ok {
			return nil
		}
		t := c.info.Types[lhs.X]
		if t == nil || t.Elem == nil || !t.Elem.IsNumeric() {
			return nil
		}
		if t.Kind == types.Dict && (t.Key == nil || !t.Key.IsNumeric()) {
			return nil
		}
		if t.Kind == types.Dict {
			if f := c.fastDictBump(st, lhs, id); f != nil {
				return f
			}
		}
		// Generic order: RHS, then base, then index.
		rhs := c.fastOperand(st.RHS)
		if !rhs.ok() {
			return nil
		}
		idx, ok := c.cellSlot(id.Name)
		if !ok {
			return nil
		}
		key := c.fastOperand(lhs.Index)
		if !key.ok() {
			return nil
		}
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
		case types.Array:
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
				if bv.Kind != value.KArray {
					return errf(pos, "value is not indexable")
				}
				if i < 0 || i >= int64(len(bv.Arr.Elems)) {
					return errf(pos, "array index %d out of range [0,%d)", i, len(bv.Arr.Elems))
				}
				bv.Arr.Elems[i] = value.Value{Kind: value.KInt, Int: n}
				return nil
			}
		case types.Vector:
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
				if bv.Kind != value.KVector {
					return errf(pos, "value is not indexable")
				}
				if i < 0 || i >= int64(len(bv.Vec.Elems)) {
					return errf(pos, "vector index %d out of range [0,%d)", i, len(bv.Vec.Elems))
				}
				bv.Vec.Elems[i] = value.Value{Kind: value.KInt, Int: n}
				return nil
			}
		}
		return nil
	}
	return nil
}

// fastDictBump lowers `d[k] = d[k] ± e` on a numeric dict d, with k a
// leaf, to one map update. The generic path reads d[k] (kind check at
// the read), evaluates e, then stores; e cannot write d or k, so reading
// the element after e, as the update does, sees the same value, and an
// error in e still leaves d untouched. nil when st has another shape.
func (c *compiler) fastDictBump(st *ast.AssignStmt, lhs *ast.IndexExpr, base *ast.Ident) fastStmt {
	bin, ok := st.RHS.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.PLUS && bin.Op != token.MINUS) {
		return nil
	}
	read, ok := bin.X.(*ast.IndexExpr)
	if !ok || !identNamed(read.X, base.Name) {
		return nil
	}
	idx, ok := c.cellSlot(base.Name)
	if !ok {
		return nil
	}
	key := c.fastOperand(read.Index)
	if !sameLeaf(key, c.fastOperand(lhs.Index)) {
		return nil
	}
	e := c.fastOperand(bin.Y)
	if !e.ok() {
		return nil
	}
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

func (c *compiler) fastPrint(x *ast.CallExpr) fastStmt {
	args := make([]fastStr, len(x.Args))
	for i, a := range x.Args {
		if args[i] = c.fastStrArg(a); args[i] == nil {
			return nil
		}
	}
	parts := make([]string, len(args))
	return func(fr *frame) error {
		for i, a := range args {
			s, err := a(fr)
			if err != nil {
				return err
			}
			parts[i] = s
		}
		fmt.Fprintln(fr.out, strings.Join(parts, " "))
		return nil
	}
}

// fastStrArg lowers one print() argument. Scalar productions render via
// FormatInt, which matches Value.String on the KInt values they stand
// for; the two NULL-producing shapes (a NULL literal, a vector get that
// may run out of range) are rendered explicitly.
func (c *compiler) fastStrArg(e ast.Expr) fastStr {
	switch x := e.(type) {
	case *ast.StringLit:
		s := x.Val
		return func(*frame) (string, error) { return s, nil }
	case *ast.NullLit:
		return func(*frame) (string, error) { return "NULL", nil }
	case *ast.IndexExpr:
		if t := c.info.Types[x.X]; t != nil && t.Kind == types.Vector {
			return c.fastVecGetStr(x)
		}
	}
	o := c.fastOperand(e)
	if !o.ok() {
		return nil
	}
	return func(fr *frame) (string, error) {
		n, err := o.get(fr)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(n, 10), nil
	}
}

// fastVecGetStr renders a direct vector-element read, preserving the
// generic path's NULL result for an out-of-range index.
func (c *compiler) fastVecGetStr(x *ast.IndexExpr) fastStr {
	id, ok := x.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[x.X]
	if t == nil || t.Kind != types.Vector || t.Elem == nil || !t.Elem.IsNumeric() {
		return nil
	}
	idx, ok := c.cellSlot(id.Name)
	if !ok {
		return nil
	}
	key := c.fastOperand(x.Index)
	if !key.ok() {
		return nil
	}
	pos := x.P
	return func(fr *frame) (string, error) {
		bv := fr.cells[idx]
		i, err := key.get(fr)
		if err != nil {
			return "", err
		}
		if bv.Kind != value.KVector {
			return "", errf(pos, "value is not indexable")
		}
		if i < 0 || i >= int64(len(bv.Vec.Elems)) {
			return "NULL", nil
		}
		return strconv.FormatInt(asIntRef(&bv.Vec.Elems[i]), 10), nil
	}
}

// fastOperand lowers e to an unboxed scalar operand whose generic value
// is guaranteed integer-shaped (KInt or KNull); no lowering (a nil fn)
// when none exists. It extends intOperand's productions with registers,
// bind-time constants and container reads, and re-recurses through
// itself so the extensions compose.
func (c *compiler) fastOperand(e ast.Expr) operand {
	switch x := e.(type) {
	case *ast.IntLit:
		return litOperand(x.Val)
	case *ast.CharLit:
		return litOperand(int64(x.Val))
	case *ast.NullLit:
		// NULL coerces to 0 under every integer consumer (AsInt, Equal
		// against integer-shaped values, a numeric dict key, AsBool).
		return litOperand(0)
	case *ast.Ident:
		// Numeric-typed names only: registers are int64, and numeric
		// cells always hold KInt (every store goes through Convert or
		// ZeroValue), keeping the result integer-shaped — unlike
		// intOperand's any-type Ident rule.
		t := c.info.Types[e]
		if t == nil || !t.IsNumeric() {
			return operand{}
		}
		sl, ok := c.resolve(x.Name)
		if !ok {
			return operand{}
		}
		if sl.local {
			return regOperand(sl.idx)
		}
		return cellOperand(sl.idx)
	case *ast.FieldExpr:
		if c.info.DynamicExprs[x] {
			return c.dynOperand(x)
		}
		return c.constOperand(x)
	case *ast.IndexExpr:
		return exprOperand(c.fastIndexGet(x))
	case *ast.CallExpr:
		return exprOperand(c.fastSize(x))
	case *ast.UnaryExpr:
		return negOperand(x, c.fastOperand)
	case *ast.BinaryExpr:
		return exprOperand(intBinary(x, c.fastOperand))
	}
	return operand{}
}

// sameLeaf reports whether a and b are the same leaf.
func sameLeaf(a, b operand) bool {
	return a.kind != notLeaf && a.kind == b.kind && a.idx == b.idx && a.n == b.n
}

func regOperand(idx int) operand {
	return operand{kind: leafReg, idx: idx, fn: func(fr *frame) (int64, error) { return fr.regs[idx], nil }}
}

// constOperand lowers a numeric static attribute of a CFE variable to
// its bind-time constant register, shared by every use in the body; no
// lowering for any other static attribute.
func (c *compiler) constOperand(x *ast.FieldExpr) operand {
	id, ok := x.X.(*ast.Ident)
	if !ok || c.info.DynamicExprs[x] {
		return operand{}
	}
	if t := c.info.Types[x.X]; t == nil || t.Kind != types.CFE {
		return operand{}
	}
	if t := c.info.Types[x]; t == nil || !t.IsNumeric() {
		return operand{}
	}
	cell, ok := c.cellSlot(id.Name)
	if !ok {
		return operand{}
	}
	attr := strings.ToLower(x.Name)
	for _, k := range c.consts {
		if k.cell == cell && k.attr == attr {
			return regOperand(k.reg)
		}
	}
	reg := c.nLocals
	c.nLocals++
	c.consts = append(c.consts, bindConst{cell: cell, attr: attr, reg: reg})
	return regOperand(reg)
}

// vecArgOperand lowers the argument of a numeric vector's has or add,
// which the generic path converts to IntVal(AsInt(arg)) before use, so
// besides fastOperand's productions a line-typed cell qualifies (AsInt
// parses it).
func (c *compiler) vecArgOperand(e ast.Expr) operand {
	if id, ok := e.(*ast.Ident); ok {
		if t := c.info.Types[e]; t != nil && t.Kind == types.Line {
			if idx, ok := c.cellSlot(id.Name); ok {
				return cellOperand(idx)
			}
			return operand{}
		}
	}
	return c.fastOperand(e)
}

// fastIndexGet lowers a container read on a directly-named base with
// numeric elements (and, for dicts, a numeric key type, whose key
// conversion is AsInt — the unboxed int64 key).
func (c *compiler) fastIndexGet(x *ast.IndexExpr) intFn {
	id, ok := x.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[x.X]
	if t == nil || t.Elem == nil || !t.Elem.IsNumeric() {
		return nil
	}
	if t.Kind == types.Dict && (t.Key == nil || !t.Key.IsNumeric()) {
		return nil
	}
	idx, ok := c.cellSlot(id.Name)
	if !ok {
		return nil
	}
	key := c.fastOperand(x.Index)
	if !key.ok() {
		return nil
	}
	pos := x.P
	switch t.Kind {
	case types.Dict:
		return func(fr *frame) (int64, error) {
			bv := fr.cells[idx]
			k, ok := key.leaf(fr)
			if !ok {
				var err error
				if k, err = key.fn(fr); err != nil {
					return 0, err
				}
			}
			if bv.Kind != value.KDict {
				return 0, errf(pos, "value is not indexable")
			}
			return bv.Dict.Ints[k], nil // a missing key reads 0
		}
	case types.Vector:
		// Out of range yields NULL generically, which is 0 here.
		return func(fr *frame) (int64, error) {
			bv := fr.cells[idx]
			i, ok := key.leaf(fr)
			if !ok {
				var err error
				if i, err = key.fn(fr); err != nil {
					return 0, err
				}
			}
			if bv.Kind != value.KVector {
				return 0, errf(pos, "value is not indexable")
			}
			if i < 0 || i >= int64(len(bv.Vec.Elems)) {
				return 0, nil
			}
			return asIntRef(&bv.Vec.Elems[i]), nil
		}
	case types.Array:
		return func(fr *frame) (int64, error) {
			bv := fr.cells[idx]
			i, err := key.get(fr)
			if err != nil {
				return 0, err
			}
			if bv.Kind != value.KArray {
				return 0, errf(pos, "value is not indexable")
			}
			if i < 0 || i >= int64(len(bv.Arr.Elems)) {
				return 0, errf(pos, "array index %d out of range [0,%d)", i, len(bv.Arr.Elems))
			}
			return asIntRef(&bv.Arr.Elems[i]), nil
		}
	}
	return nil
}

// sizeOf is recv.size() on a vector or dict value; false for any other
// kind (the generic path's invalid-method error).
func sizeOf(rv *value.Value) (int64, bool) {
	switch rv.Kind {
	case value.KVector:
		return int64(len(rv.Vec.Elems)), true
	case value.KDict:
		return int64(rv.Dict.Len()), true
	}
	return 0, false
}

// fastSize lowers recv.size() on a directly-named vector or dict.
func (c *compiler) fastSize(x *ast.CallExpr) intFn {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "size" || len(x.Args) != 0 {
		return nil
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[fun.X]
	if t == nil || (t.Kind != types.Vector && t.Kind != types.Dict) {
		return nil
	}
	idx, ok := c.cellSlot(id.Name)
	if !ok {
		return nil
	}
	pos, name := x.P, fun.Name
	return func(fr *frame) (int64, error) {
		if n, ok := sizeOf(fr.cells[idx]); ok {
			return n, nil
		}
		return 0, errf(pos, "invalid method %q", name)
	}
}

// numericVector resolves the receiver of a method call on a
// directly-named vector with numeric elements to its cell.
func (c *compiler) numericVector(fun *ast.FieldExpr) (int, bool) {
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	t := c.info.Types[fun.X]
	if t == nil || t.Kind != types.Vector || t.Elem == nil || !t.Elem.IsNumeric() {
		return 0, false
	}
	return c.cellSlot(id.Name)
}

// fastVecAdd lowers the statement v.add(x) on a numeric vector: the
// generic path appends Convert(x, elem), which is IntVal(AsInt(x)) (so
// NULL appends 0).
func (c *compiler) fastVecAdd(x *ast.CallExpr, fun *ast.FieldExpr) fastStmt {
	if len(x.Args) != 1 {
		return nil
	}
	idx, ok := c.numericVector(fun)
	if !ok {
		return nil
	}
	arg := c.vecArgOperand(x.Args[0])
	if !arg.ok() {
		return nil
	}
	pos, name := x.P, fun.Name
	return func(fr *frame) error {
		// Generic order: the receiver's kind is checked before the
		// argument is evaluated.
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

// fastBoolExpr lowers e to its truth coercion; nil when no fast path
// preserves the generic result exactly.
func (c *compiler) fastBoolExpr(e ast.Expr) fastBool {
	switch x := e.(type) {
	case *ast.BoolLit:
		b := x.Val
		return func(*frame) (bool, error) { return b, nil }
	case *ast.Ident:
		if t := c.info.Types[e]; t != nil && t.Kind == types.Bool {
			idx, ok := c.cellSlot(x.Name)
			if !ok {
				return nil
			}
			return func(fr *frame) (bool, error) { return fr.cells[idx].AsBool(), nil }
		}
	case *ast.CallExpr:
		if f := c.fastHas(x); f != nil {
			return f
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			sub := c.fastBoolExpr(x.X)
			if sub == nil {
				return nil
			}
			return func(fr *frame) (bool, error) {
				b, err := sub(fr)
				return !b, err
			}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			l := c.fastBoolExpr(x.X)
			if l == nil {
				return nil
			}
			r := c.fastBoolExpr(x.Y)
			if r == nil {
				return nil
			}
			if x.Op == token.LAND {
				return func(fr *frame) (bool, error) {
					b, err := l(fr)
					if err != nil || !b {
						return false, err
					}
					return r(fr)
				}
			}
			return func(fr *frame) (bool, error) {
				b, err := l(fr)
				if err != nil || b {
					return b, err
				}
				return r(fr)
			}
		case token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			// On integer-shaped operands, value.Equal and the ordered
			// comparison both reduce to plain int64 comparison of the
			// AsInt coercions (neither side can be a string).
			l := c.fastOperand(x.X)
			if !l.ok() {
				return nil
			}
			r := c.fastOperand(x.Y)
			if !r.ok() {
				return nil
			}
			return intCompare(x.Op, l, r)
		}
	}
	// Any other integer-shaped scalar consumed as a condition: AsBool of
	// KInt n is n != 0, of KNull is false — both are n != 0 here.
	if o := c.fastOperand(e); o.ok() {
		return func(fr *frame) (bool, error) {
			n, err := o.get(fr)
			return n != 0, err
		}
	}
	return nil
}

// fastHas lowers r.has(k) on a directly-named dict with numeric key and
// element types, or vector with numeric elements.
func (c *compiler) fastHas(x *ast.CallExpr) fastBool {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "has" || len(x.Args) != 1 {
		return nil
	}
	pos, name := x.P, fun.Name
	if idx, ok := c.numericVector(fun); ok {
		arg := c.vecArgOperand(x.Args[0])
		if !arg.ok() {
			return nil
		}
		return func(fr *frame) (bool, error) {
			rv := fr.cells[idx]
			if rv.Kind != value.KVector {
				return false, errf(pos, "invalid method %q", name)
			}
			k, err := arg.get(fr)
			if err != nil {
				return false, err
			}
			// value.Equal(e, IntVal(k)) is AsInt(e) == k for every
			// element kind (NULL included: AsInt(NULL) is 0).
			for i := range rv.Vec.Elems {
				if asIntRef(&rv.Vec.Elems[i]) == k {
					return true, nil
				}
			}
			return false, nil
		}
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[fun.X]
	if t == nil || t.Kind != types.Dict || !t.Key.IsNumeric() || !t.Elem.IsNumeric() {
		return nil
	}
	idx, ok := c.cellSlot(id.Name)
	if !ok {
		return nil
	}
	arg := c.fastOperand(x.Args[0])
	if !arg.ok() {
		return nil
	}
	return func(fr *frame) (bool, error) {
		// Generic order: the receiver's kind is checked before the
		// argument is evaluated.
		rv := fr.cells[idx]
		if rv.Kind != value.KDict {
			return false, errf(pos, "invalid method %q", name)
		}
		k, err := arg.get(fr)
		if err != nil {
			return false, err
		}
		_, ok := rv.Dict.Ints[k]
		return ok, nil
	}
}

// intCompare returns the closure for l op r on unboxed operands, one per
// comparison operator.
func intCompare(op token.Kind, l, r operand) fastBool {
	switch op {
	case token.EQ:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a == b, err
		}
	case token.NEQ:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a != b, err
		}
	case token.LT:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a < b, err
		}
	case token.LE:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a <= b, err
		}
	case token.GT:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a > b, err
		}
	case token.GE:
		return func(fr *frame) (bool, error) {
			a, b, err := operands(fr, l, r)
			return a >= b, err
		}
	}
	return nil
}
