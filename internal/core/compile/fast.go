package compile

// The whole-body fast tier. lower_int.go removes Value copies from
// individual scalar subtrees; this file goes further and lowers entire
// action bodies — statements included — into closures that keep every
// intermediate value an unboxed int64, boxing only at stores to cells.
// Body locals, which are always numeric here, live in an int64 register
// slice on the fast frame instead of Value slots; numeric-keyed dicts
// with numeric elements are read and written through their int64 map
// (value.DictVal.Ints); and every comparison and arithmetic operator
// gets its own closure, so an evaluation makes no indirect call beyond
// its operands'. The VM's inline tier (internal/vm) invokes these bodies
// from specialized probe thunks, so the whole fire costs a few direct
// calls instead of a chain of Value-copying closure boundaries.
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
// needs no such guarantee. compileFastBody returns nil whenever any
// construct in the body cannot meet that bar, and the caller keeps only
// the generic lowering.
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
	"repro/internal/core/sem"
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

// fastBody is the whole-body fast lowering of one action, with its own
// frame layout (the fast pass re-resolves slots independently of the
// generic pass; Bind aliases both frames onto the same cells).
type fastBody struct {
	cells   []CellRef
	nLocals int
	guard   fastBool
	stmts   []fastStmt

	// counter lists the bumps of an additive body in statement order
	// (nil when the body is not additive; see classifyCounter).
	counter []counterTerm
}

// counterTerm is one `c = c ± k` statement of an additive body, in
// fast-frame cell indices.
type counterTerm struct {
	// cell holds c — or, when elem >= 0, the array whose element elem
	// is c.
	cell, elem int
	// k is the literal addend; when kCell >= 0 the addend is that
	// captured cell instead. neg subtracts the addend.
	k     int64
	kCell int
	neg   bool
}

// compileFastBody attempts the whole-body fast lowering; nil means some
// construct has no fast path and the body stays generic-only. rebound
// names the arrays some statement of the program rebinds (see
// arrayRebinds).
func compileFastBody(info *sem.Info, dyn []sem.DynAttr, body []ast.Stmt, guard ast.Expr, outer *outerScope, rebound map[string]bool) *fastBody {
	c := &compiler{info: info, outer: outer, cellIdx: make(map[string]int), dyn: dyn, rebound: rebound}
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
	fb.cells = c.cells
	fb.nLocals = c.nLocals
	return fb
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
//   - k is an integer literal, or a captured numeric scalar that no
//     statement of the body assigns. Captured cells are private to their
//     placement, so nothing else can change such a k between firings. A
//     global k never qualifies: another action may write it between
//     firings, and a deferred flush would read the later value.
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
	t := counterTerm{elem: -1, kCell: -1}
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
			if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "print" {
				return c.fastPrint(call)
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

func (c *compiler) fastDecl(d *ast.VarDecl) fastStmt {
	t := c.info.DeclTypes[d]
	if t == nil || !t.IsNumeric() {
		return nil
	}
	// As in the generic pass, the initializer resolves before the name is
	// defined.
	var ifn intFn
	if d.Init != nil {
		if ifn = c.fastIntExpr(d.Init); ifn == nil {
			return nil
		}
	}
	idx := c.defineLocal(d.Name)
	if ifn == nil {
		return func(fr *frame) error {
			fr.regs[idx] = 0
			return nil
		}
	}
	return func(fr *frame) error {
		n, err := ifn(fr)
		if err != nil {
			return err
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
		ifn := c.fastIntExpr(st.RHS)
		if ifn == nil {
			return nil
		}
		idx := sl.idx
		if sl.local {
			return func(fr *frame) error {
				n, err := ifn(fr)
				if err != nil {
					return err
				}
				fr.regs[idx] = n
				return nil
			}
		}
		return func(fr *frame) error {
			n, err := ifn(fr)
			if err != nil {
				return err
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
		// Generic order: RHS, then base, then index.
		rhsFn := c.fastIntExpr(st.RHS)
		if rhsFn == nil {
			return nil
		}
		idx, ok := c.cellSlot(id.Name)
		if !ok {
			return nil
		}
		idxFn := c.fastIntExpr(lhs.Index)
		if idxFn == nil {
			return nil
		}
		pos := lhs.P
		switch t.Kind {
		case types.Dict:
			return func(fr *frame) error {
				n, err := rhsFn(fr)
				if err != nil {
					return err
				}
				bv := fr.cells[idx]
				k, err := idxFn(fr)
				if err != nil {
					return err
				}
				if bv.Kind != value.KDict {
					return errf(pos, "value is not indexable")
				}
				if m := bv.Dict.Ints; m != nil {
					m[k] = n
					return nil
				}
				// A dict<K,line> assigned to this variable keeps its
				// boxed layout.
				bv.Dict.Set(value.IntVal(k), value.IntVal(n))
				return nil
			}
		case types.Array:
			return func(fr *frame) error {
				n, err := rhsFn(fr)
				if err != nil {
					return err
				}
				bv := fr.cells[idx]
				i, err := idxFn(fr)
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
				n, err := rhsFn(fr)
				if err != nil {
					return err
				}
				bv := fr.cells[idx]
				i, err := idxFn(fr)
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
	ifn := c.fastIntExpr(e)
	if ifn == nil {
		return nil
	}
	return func(fr *frame) (string, error) {
		n, err := ifn(fr)
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
	idxFn := c.fastIntExpr(x.Index)
	if idxFn == nil {
		return nil
	}
	pos := x.P
	return func(fr *frame) (string, error) {
		bv := fr.cells[idx]
		i, err := idxFn(fr)
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

// fastIntExpr lowers e to an unboxed scalar whose generic value is
// guaranteed integer-shaped (KInt or KNull); nil when no such lowering
// exists. It extends compileIntExpr's productions with container reads
// and re-recurses through itself so the extensions compose.
func (c *compiler) fastIntExpr(e ast.Expr) intFn {
	switch x := e.(type) {
	case *ast.IntLit:
		n := x.Val
		return func(*frame) (int64, error) { return n, nil }
	case *ast.CharLit:
		n := int64(x.Val)
		return func(*frame) (int64, error) { return n, nil }
	case *ast.NullLit:
		// NULL coerces to 0 under every integer consumer (AsInt, Equal
		// against integer-shaped values, a numeric dict key, AsBool).
		return func(*frame) (int64, error) { return 0, nil }
	case *ast.Ident:
		// Numeric-typed names only: registers are int64, and numeric
		// cells always hold KInt (every store goes through Convert or
		// ZeroValue), keeping the result integer-shaped — unlike
		// lower_int.go's any-type Ident rule.
		t := c.info.Types[e]
		if t == nil || !t.IsNumeric() {
			return nil
		}
		sl, ok := c.resolve(x.Name)
		if !ok {
			return nil
		}
		idx := sl.idx
		if sl.local {
			return func(fr *frame) (int64, error) { return fr.regs[idx], nil }
		}
		return func(fr *frame) (int64, error) { return asIntRef(fr.cells[idx]), nil }
	case *ast.FieldExpr:
		// Dynamic attributes materialize as integer words (UintVal).
		if !c.info.DynamicExprs[x] {
			return nil
		}
		return c.compileIntExpr(e)
	case *ast.IndexExpr:
		return c.fastIndexGet(x)
	case *ast.CallExpr:
		return c.fastSize(x)
	case *ast.UnaryExpr:
		if x.Op != token.MINUS {
			return nil
		}
		sub := c.fastIntExpr(x.X)
		if sub == nil {
			return nil
		}
		return func(fr *frame) (int64, error) {
			n, err := sub(fr)
			if err != nil {
				return 0, err
			}
			return -n, nil
		}
	case *ast.BinaryExpr:
		return intBinary(x, c.fastIntExpr)
	}
	return nil
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
	idxFn := c.fastIntExpr(x.Index)
	if idxFn == nil {
		return nil
	}
	pos := x.P
	switch t.Kind {
	case types.Dict:
		return func(fr *frame) (int64, error) {
			bv := fr.cells[idx]
			k, err := idxFn(fr)
			if err != nil {
				return 0, err
			}
			if bv.Kind != value.KDict {
				return 0, errf(pos, "value is not indexable")
			}
			if m := bv.Dict.Ints; m != nil {
				return m[k], nil // a missing key reads 0
			}
			e := bv.Dict.Get(value.IntVal(k))
			return asIntRef(&e), nil
		}
	case types.Vector:
		// Out of range yields NULL generically, which is 0 here.
		return func(fr *frame) (int64, error) {
			bv := fr.cells[idx]
			i, err := idxFn(fr)
			if err != nil {
				return 0, err
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
			i, err := idxFn(fr)
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
		rv := fr.cells[idx]
		switch rv.Kind {
		case value.KVector:
			return int64(len(rv.Vec.Elems)), nil
		case value.KDict:
			return int64(rv.Dict.Len()), nil
		}
		return 0, errf(pos, "invalid method %q", name)
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
			l := c.fastIntExpr(x.X)
			if l == nil {
				return nil
			}
			r := c.fastIntExpr(x.Y)
			if r == nil {
				return nil
			}
			return intCompare(x.Op, l, r)
		}
	}
	// Any other integer-shaped scalar consumed as a condition: AsBool of
	// KInt n is n != 0, of KNull is false — both are n != 0 here.
	if ifn := c.fastIntExpr(e); ifn != nil {
		return func(fr *frame) (bool, error) {
			n, err := ifn(fr)
			return n != 0, err
		}
	}
	return nil
}

// fastHas lowers d.has(k) on a directly-named dict with a numeric key
// type.
func (c *compiler) fastHas(x *ast.CallExpr) fastBool {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "has" || len(x.Args) != 1 {
		return nil
	}
	id, ok := fun.X.(*ast.Ident)
	if !ok {
		return nil
	}
	t := c.info.Types[fun.X]
	if t == nil || t.Kind != types.Dict || t.Key == nil || !t.Key.IsNumeric() {
		return nil
	}
	idx, ok := c.cellSlot(id.Name)
	if !ok {
		return nil
	}
	arg := c.fastIntExpr(x.Args[0])
	if arg == nil {
		return nil
	}
	pos, name := x.P, fun.Name
	return func(fr *frame) (bool, error) {
		// Generic order: the receiver's kind is checked before the
		// argument is evaluated.
		rv := fr.cells[idx]
		if rv.Kind != value.KDict {
			return false, errf(pos, "invalid method %q", name)
		}
		k, err := arg(fr)
		if err != nil {
			return false, err
		}
		if m := rv.Dict.Ints; m != nil {
			_, ok := m[k]
			return ok, nil
		}
		return rv.Dict.Has(value.IntVal(k)), nil
	}
}

// intCompare returns the closure for l op r on unboxed operands, one per
// comparison operator.
func intCompare(op token.Kind, l, r intFn) fastBool {
	switch op {
	case token.EQ:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a == b, err
		}
	case token.NEQ:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a != b, err
		}
	case token.LT:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a < b, err
		}
	case token.LE:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a <= b, err
		}
	case token.GT:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a > b, err
		}
	case token.GE:
		return func(fr *frame) (bool, error) {
			a, err := l(fr)
			if err != nil {
				return false, err
			}
			b, err := r(fr)
			return a >= b, err
		}
	}
	return nil
}
