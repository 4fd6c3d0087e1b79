package compile

// The scalar fast path. value.Value is a wide struct, and the generic
// exprFn chain copies one across every closure boundary — for the
// all-integer arithmetic that dominates real action bodies (counters,
// address compares), that copying is most of the firing cost. This file
// lowers expressions whose value the surrounding context consumes as an
// integer into intFn closures that pass a bare int64 in registers,
// boxing a Value only where one is actually stored.
//
// The contract, relied on by the hook-in points in lower.go: an intFn
// produced for expression e returns exactly AsInt() of the value the
// generic lowering of e would produce, with the same evaluation order,
// side effects, runtime error messages and positions. compileIntExpr
// returns nil whenever it cannot guarantee that, and the caller falls
// back to the generic path.

import (
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/token"
	"repro/internal/core/value"
)

// intFn evaluates an expression to its integer coercion.
type intFn func(fr *frame) (int64, error)

// asIntRef is value.Value.AsInt without copying the struct in the common
// already-an-integer case.
func asIntRef(v *value.Value) int64 {
	if v.Kind == value.KInt {
		return v.Int
	}
	return v.AsInt()
}

// compileIntExpr lowers e to the scalar tier, or returns nil when e has
// no integer fast path.
func (c *compiler) compileIntExpr(e ast.Expr) intFn {
	switch x := e.(type) {
	case *ast.IntLit:
		n := x.Val
		return func(*frame) (int64, error) { return n, nil }
	case *ast.CharLit:
		n := int64(x.Val)
		return func(*frame) (int64, error) { return n, nil }
	case *ast.Ident:
		sl, ok := c.resolve(x.Name)
		if !ok {
			return nil
		}
		idx := sl.idx
		if sl.local {
			return func(fr *frame) (int64, error) { return asIntRef(&fr.locals[idx]), nil }
		}
		return func(fr *frame) (int64, error) { return asIntRef(fr.cells[idx]), nil }
	case *ast.FieldExpr:
		// Dynamic attributes are materialized as integer words; static
		// attributes can be any kind and stay on the generic path.
		if !c.info.DynamicExprs[x] {
			return nil
		}
		id, ok := x.X.(*ast.Ident)
		if !ok {
			return nil
		}
		attr := strings.ToLower(x.Name)
		key := id.Name + "." + attr
		idx, ok := c.dynSlot(id.Name, attr)
		if !ok {
			return nil
		}
		pos := x.P
		return func(fr *frame) (int64, error) {
			if idx >= len(fr.dyn) {
				return 0, errf(pos, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
			}
			return asIntRef(&fr.dyn[idx]), nil
		}
	case *ast.UnaryExpr:
		if x.Op != token.MINUS {
			return nil
		}
		sub := c.compileIntExpr(x.X)
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
		return intBinary(x, c.compileIntExpr)
	}
	return nil
}

// intBinary lowers an arithmetic operator, whose generic result is always
// IntVal(f(l.AsInt(), r.AsInt())), over operands lowered by sub — this
// tier's compileIntExpr or the fast tier's fastIntExpr; nil when either
// operand has no such lowering.
func intBinary(x *ast.BinaryExpr, sub func(ast.Expr) intFn) intFn {
	if !isArith(x.Op) {
		return nil
	}
	l := sub(x.X)
	if l == nil {
		return nil
	}
	r := sub(x.Y)
	if r == nil {
		return nil
	}
	return intArith(x.Op, x.P, l, r)
}

func isArith(op token.Kind) bool {
	switch op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR:
		return true
	}
	return false
}

// intArith returns the closure for l op r on the scalar tier, one per
// arithmetic operator, so an evaluation makes no indirect call beyond its
// operands'. A division by zero is reported at pos.
func intArith(op token.Kind, pos token.Pos, l, r intFn) intFn {
	switch op {
	case token.PLUS:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a + b, err
		}
	case token.MINUS:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a - b, err
		}
	case token.STAR:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a * b, err
		}
	case token.AMP:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a & b, err
		}
	case token.PIPE:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a | b, err
		}
	case token.CARET:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a ^ b, err
		}
	case token.SHL:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return a << (uint64(b) & 63), err
		}
	case token.SHR:
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			return int64(uint64(a) >> (uint64(b) & 63)), err
		}
	case token.SLASH, token.PERCENT:
		mod := op == token.PERCENT
		return func(fr *frame) (int64, error) {
			a, err := l(fr)
			if err != nil {
				return 0, err
			}
			b, err := r(fr)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, errf(pos, "division by zero")
			}
			if mod {
				return a % b, nil
			}
			return a / b, nil
		}
	}
	return nil
}
