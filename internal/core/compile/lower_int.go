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

// leafKind classifies an operand a consumer can read in place.
type leafKind uint8

const (
	notLeaf  leafKind = iota // any other expression: evaluate fn
	leafLit                  // the literal n
	leafReg                  // fast-tier register idx: a body local or a bind-time constant
	leafCell                 // cell idx
	leafDyn                  // dynamic attribute slot idx
)

// operand is a lowered scalar operand. Every comparison, arithmetic,
// index, store and has closure holds its operands as descriptors and
// reads a leaf in place through leaf, which the Go compiler inlines, so
// a leaf costs no closure call; only a non-leaf operand pays one, to fn.
// fn is always set: it evaluates the operand on its own, and it is the
// fallback for a leaf whose value is not a KInt (a cell or attribute
// that needs AsInt) or whose attribute slot is missing (the error).
type operand struct {
	kind leafKind
	idx  int
	n    int64
	fn   intFn
}

// ok reports whether the operand has a lowering at all.
func (o operand) ok() bool { return o.fn != nil }

// leaf reads a leaf operand in place; false means the caller must call
// fn instead.
func (o operand) leaf(fr *frame) (int64, bool) {
	switch o.kind {
	case leafLit:
		return o.n, true
	case leafReg:
		return fr.regs[o.idx], true
	case leafCell:
		v := fr.cells[o.idx]
		return v.Int, v.Kind == value.KInt
	case leafDyn:
		if o.idx < len(fr.dyn) {
			v := &fr.dyn[o.idx]
			return v.Int, v.Kind == value.KInt
		}
	}
	return 0, false
}

// get evaluates the operand: a leaf in place, anything else through fn.
// It is itself a call, so the per-iteration statements of a walk
// (declarations, assignments, container reads, dict bumps) inline the
// leaf read instead.
func (o operand) get(fr *frame) (int64, error) {
	if n, ok := o.leaf(fr); ok {
		return n, nil
	}
	return o.fn(fr)
}

// operands evaluates l then r, reading leaves in place: one direct call
// for both operands of an arithmetic or comparison operator.
func operands(fr *frame, l, r operand) (a, b int64, err error) {
	a, ok := l.leaf(fr)
	if !ok {
		if a, err = l.fn(fr); err != nil {
			return 0, 0, err
		}
	}
	if b, ok = r.leaf(fr); !ok {
		b, err = r.fn(fr)
	}
	return a, b, err
}

func litOperand(n int64) operand {
	return operand{kind: leafLit, n: n, fn: func(*frame) (int64, error) { return n, nil }}
}

func cellOperand(idx int) operand {
	return operand{kind: leafCell, idx: idx, fn: func(fr *frame) (int64, error) { return asIntRef(fr.cells[idx]), nil }}
}

func exprOperand(fn intFn) operand { return operand{fn: fn} }

// dynOperand reads a dynamic attribute slot (materialized as integer
// words, UintVal); nil fn when the body has no slot for it.
func (c *compiler) dynOperand(x *ast.FieldExpr) operand {
	id, ok := x.X.(*ast.Ident)
	if !ok {
		return operand{}
	}
	attr := strings.ToLower(x.Name)
	key := id.Name + "." + attr
	idx, ok := c.dynSlot(id.Name, attr)
	if !ok {
		return operand{}
	}
	pos := x.P
	return operand{kind: leafDyn, idx: idx, fn: func(fr *frame) (int64, error) {
		if idx >= len(fr.dyn) {
			return 0, errf(pos, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
		}
		return asIntRef(&fr.dyn[idx]), nil
	}}
}

// compileIntExpr lowers e to the scalar tier, or returns nil when e has
// no integer fast path.
func (c *compiler) compileIntExpr(e ast.Expr) intFn { return c.intOperand(e).fn }

// intOperand is compileIntExpr's operand form: literals and cells are
// leaves; locals, which live in Value slots on this tier, are not.
func (c *compiler) intOperand(e ast.Expr) operand {
	switch x := e.(type) {
	case *ast.IntLit:
		return litOperand(x.Val)
	case *ast.CharLit:
		return litOperand(int64(x.Val))
	case *ast.Ident:
		sl, ok := c.resolve(x.Name)
		if !ok {
			return operand{}
		}
		idx := sl.idx
		if sl.local {
			return exprOperand(func(fr *frame) (int64, error) { return asIntRef(&fr.locals[idx]), nil })
		}
		return cellOperand(idx)
	case *ast.FieldExpr:
		// Dynamic attributes are materialized as integer words; static
		// attributes can be any kind and stay on the generic path.
		if !c.info.DynamicExprs[x] {
			return operand{}
		}
		return c.dynOperand(x)
	case *ast.UnaryExpr:
		return negOperand(x, c.intOperand)
	case *ast.BinaryExpr:
		return exprOperand(intBinary(x, c.intOperand))
	}
	return operand{}
}

// negOperand lowers unary minus over an operand lowered by sub.
func negOperand(x *ast.UnaryExpr, sub func(ast.Expr) operand) operand {
	if x.Op != token.MINUS {
		return operand{}
	}
	o := sub(x.X)
	if !o.ok() {
		return operand{}
	}
	return exprOperand(func(fr *frame) (int64, error) {
		n, err := o.get(fr)
		return -n, err
	})
}

// intBinary lowers an arithmetic operator, whose generic result is always
// IntVal(f(l.AsInt(), r.AsInt())), over operands lowered by sub — this
// tier's intOperand or the fast tier's fastOperand; nil when either
// operand has no such lowering.
func intBinary(x *ast.BinaryExpr, sub func(ast.Expr) operand) intFn {
	if !isArith(x.Op) {
		return nil
	}
	l := sub(x.X)
	if !l.ok() {
		return nil
	}
	r := sub(x.Y)
	if !r.ok() {
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
// arithmetic operator. A division by zero is reported at pos.
func intArith(op token.Kind, pos token.Pos, l, r operand) intFn {
	switch op {
	case token.PLUS:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a + b, err
		}
	case token.MINUS:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a - b, err
		}
	case token.STAR:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a * b, err
		}
	case token.AMP:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a & b, err
		}
	case token.PIPE:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a | b, err
		}
	case token.CARET:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a ^ b, err
		}
	case token.SHL:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return a << (uint64(b) & 63), err
		}
	case token.SHR:
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
			return int64(uint64(a) >> (uint64(b) & 63)), err
		}
	case token.SLASH, token.PERCENT:
		mod := op == token.PERCENT
		return func(fr *frame) (int64, error) {
			a, b, err := operands(fr, l, r)
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
