package compile

// Counter classification. An additive body — every statement a
// `c = c ± k` bump — lets the VM count its firings in an accumulator and
// apply all bumps at once when it flushes (see Bound.CounterShape and
// internal/vm's register-promoted counters).

import (
	"repro/internal/core/ast"
	"repro/internal/core/token"
	"repro/internal/core/types"
)

// counterTerm is one `c = c ± k` statement of an additive body, in
// cell indices.
type counterTerm struct {
	// cell holds c — or, when elem >= 0, the array whose element elem
	// is c.
	cell, elem int
	// k is the literal addend; when kCell >= 0 the addend is that
	// captured cell instead, and when kReg >= 0 the bind-time constant in
	// that register. neg subtracts the addend.
	k           int64
	kCell, kReg int
	neg         bool
}

// classifyCounter recognizes an additive body (the caller has checked
// that it has no guard): every statement `c = c + k`, `c = k + c` or
// `c = c - k`, where
//
//   - c is a numeric global or captured scalar, or A[i] for a global or
//     captured static array A of numeric elements that the program never
//     rebinds, with i an integer literal in [0, len(A)) — an
//     out-of-range literal is not a bump, so its runtime error is still
//     recorded;
//   - k is an integer literal, a bind-time constant, or a captured
//     numeric scalar that no statement of the body assigns. Captured
//     cells are private to their placement, so nothing else can change
//     such a k between firings. A global k never qualifies: another
//     action may write it between firings, and a deferred flush would
//     read the later value.
//
// n firings from any start state then leave each c at
// KInt(AsInt(c) + n*k) per statement (int64 arithmetic wraps), which is
// exactly what one flush(n) produces. nil when the body is not additive.
func (c *compiler) classifyCounter(body []ast.Stmt) []counterTerm {
	if len(body) == 0 {
		return nil
	}
	terms := make([]counterTerm, len(body))
	assigned := make(map[int]bool)
	for i, s := range body {
		t, ok := c.counterStmt(s)
		if !ok {
			return nil
		}
		if t.elem < 0 {
			assigned[t.cell] = true
		}
		terms[i] = t
	}
	for _, t := range terms {
		if t.kCell >= 0 && assigned[t.kCell] {
			return nil
		}
	}
	return terms
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
		cell, ok := c.cellOf(lhs)
		if !ok || !c.typeOf(lhs).IsNumeric() {
			return counterTerm{}, false
		}
		t.cell = cell
	case *ast.IndexExpr:
		ty := c.typeOf(lhs.X)
		if ty.Kind != types.Array || !ty.Elem.IsNumeric() || c.rebound[lhs.X.(*ast.Ident).Name] {
			return counterTerm{}, false // sameTarget matched an identifier base
		}
		i, _ := litInt(lhs.Index)
		cell, ok := c.cellOf(lhs.X)
		if !ok || i < 0 || i >= int64(ty.Len) {
			return counterTerm{}, false
		}
		t.cell, t.elem = cell, int(i)
	}
	if n, ok := litInt(k); ok {
		t.k = n
		return t, true
	}
	if f, ok := k.(*ast.FieldExpr); ok && !c.info.DynamicExprs[f] {
		o, ok := c.constOperand(f)
		t.kReg = o.idx
		return t, ok
	}
	cell, ok := c.cellOf(k)
	if !ok || c.cells[cell].Global || !c.typeOf(k).IsNumeric() {
		return counterTerm{}, false
	}
	t.kCell = cell
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
