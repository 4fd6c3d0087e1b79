package compile

// The numeric representation. value.Value is a wide struct, and a chain
// of Value closures copies one across every closure boundary — for the
// all-integer arithmetic that dominates real action bodies (counters,
// address compares, dict bumps), that copying would be most of the firing
// cost. Every numeric-typed expression is therefore lowered to an operand
// that yields a bare int64: exactly AsInt() of the value the interpreter
// computes, with the same evaluation order, side effects, runtime error
// messages and positions.

import (
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
)

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
	leafReg                  // register idx: a numeric body local or a bind-time constant
	leafCell                 // cell idx
	leafDyn                  // dynamic attribute slot idx
)

// operand is a lowered numeric operand. Every comparison, arithmetic,
// index, store and has closure holds its operands as descriptors and
// reads a leaf in place through leaf, which the Go compiler inlines, so
// a leaf costs no closure call; only a non-leaf operand pays one, to fn.
// fn is always set: it evaluates the operand on its own, and it is the
// fallback for a leaf whose value is not a KInt (a cell or attribute
// that needs AsInt), whose attribute slot is missing (the error), or
// whose constant register a placement dropped (the attribute's error).
type operand struct {
	kind leafKind
	idx  int
	n    int64
	fn   intFn
}

// leaf reads a leaf operand in place; false means the caller must call
// fn instead.
func (o operand) leaf(fr *frame) (int64, bool) {
	switch o.kind {
	case leafLit:
		return o.n, true
	case leafReg:
		if o.idx < len(fr.regs) {
			return fr.regs[o.idx], true
		}
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

func regOperand(idx int) operand {
	return operand{kind: leafReg, idx: idx, fn: func(fr *frame) (int64, error) { return fr.regs[idx], nil }}
}

func cellOperand(idx int) operand {
	return operand{kind: leafCell, idx: idx, fn: func(fr *frame) (int64, error) { return asIntRef(fr.cells[idx]), nil }}
}

func exprOperand(fn intFn) operand { return operand{fn: fn} }

// num lowers e to its integer coercion, AsInt() of its value. Numeric
// expressions have native lowerings; anything else (a line, NULL, a
// string-keyed dict read) is its boxed value coerced once.
func (c *compiler) num(e ast.Expr) operand {
	switch x := e.(type) {
	case *ast.IntLit:
		return litOperand(x.Val)
	case *ast.CharLit:
		return litOperand(int64(x.Val))
	case *ast.NullLit:
		return litOperand(0)
	case *ast.Ident:
		// A cell leaf falls back to AsInt, so any cell qualifies.
		switch sl, ok := c.resolve(x.Name); {
		case ok && sl.kind == slotReg:
			return regOperand(sl.idx)
		case ok && sl.kind == slotCell:
			return cellOperand(sl.idx)
		}
	case *ast.FieldExpr:
		if c.info.DynamicExprs[x] {
			if o, ok := c.dynOperand(x); ok {
				return o
			}
		} else if o, ok := c.constOperand(x); ok {
			return o
		}
	case *ast.IndexExpr:
		if f := c.indexInt(x); f != nil {
			return exprOperand(f)
		}
	case *ast.CallExpr:
		if f := c.sizeInt(x); f != nil {
			return exprOperand(f)
		}
	case *ast.UnaryExpr:
		if x.Op == token.MINUS {
			o := c.num(x.X)
			return exprOperand(func(fr *frame) (int64, error) {
				n, err := o.get(fr)
				return -n, err
			})
		}
	case *ast.BinaryExpr:
		if isArith(x.Op) {
			return exprOperand(intArith(x.Op, x.P, c.num(x.X), c.num(x.Y)))
		}
	}
	v := c.val(e)
	return exprOperand(func(fr *frame) (int64, error) {
		x, err := v(fr)
		return x.AsInt(), err
	})
}

// dynOperand reads a dynamic attribute slot (materialized as integer
// words, UintVal); false when the body has no slot for it, whose boxed
// lowering reports the error.
func (c *compiler) dynOperand(x *ast.FieldExpr) (operand, bool) {
	id, ok := x.X.(*ast.Ident)
	if !ok {
		return operand{}, false
	}
	attr := strings.ToLower(x.Name)
	key := id.Name + "." + attr
	idx, ok := c.dynSlot(id.Name, attr)
	if !ok {
		return operand{}, false
	}
	pos := x.P
	return operand{kind: leafDyn, idx: idx, fn: func(fr *frame) (int64, error) {
		if idx >= len(fr.dyn) {
			return 0, errf(pos, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
		}
		return asIntRef(&fr.dyn[idx]), nil
	}}, true
}

// bindConst is one bind-time constant: static attribute attr of the CFE
// held in cell, read by read.
type bindConst struct {
	cell int
	attr string
	read attrRead
}

// resolve reads the constant from the value of its CFE cell; false when
// the attribute does not resolve to an integer.
func (k bindConst) resolve(cv *value.Value) (int64, bool) {
	if cv.Kind != value.KCFE {
		return 0, false
	}
	v, err := k.read.of(cv.CFE)
	return v.Int, err == nil && v.Kind == value.KInt
}

// attrRead is a static attribute read resolved once, from the static
// element kind of the CFE it reads.
type attrRead struct {
	kind ast.EType
	name string
	fn   interp.AttrFn
}

// attrOf resolves the static attribute x of a CFE-typed operand.
func (c *compiler) attrOf(x *ast.FieldExpr) attrRead {
	kind := c.typeOf(x.X).EType
	return attrRead{kind: kind, name: x.Name, fn: interp.StaticAttrOf(kind, x.Name)}
}

// of reads the attribute of ref; an element of another kind than the
// resolved one (or an attribute that did not resolve) takes the
// interpreter's lookup, which reports the error.
func (a attrRead) of(ref *value.CFERef) (value.Value, error) {
	if a.fn == nil || ref.Kind != a.kind {
		return interp.StaticAttr(ref, a.name)
	}
	return a.fn(ref), nil
}

// constOperand lowers a numeric static attribute of a CFE variable
// (I.nextaddr, L.id, B.ninsts). In an action body it is a bind-time
// constant, shared by every use in the body: CFE variables cannot be
// assigned, so the attribute is fixed for its placement. Constants take
// the registers after the locals'; a placement whose constants do not
// resolve has no such registers, and the operand then reads the
// attribute on every firing, which reports its error. In a command's
// analysis code, whose CFE changes with every instance, the operand reads
// the attribute where it is used. false for any other field.
func (c *compiler) constOperand(x *ast.FieldExpr) (operand, bool) {
	if !c.typeOf(x).IsNumeric() || c.typeOf(x.X).Kind != types.CFE {
		return operand{}, false
	}
	cell, ok := c.cellOf(x.X)
	if !ok {
		return operand{}, false
	}
	attr, pos := c.attrOf(x), x.P
	read := func(fr *frame) (int64, error) {
		cv := fr.cells[cell]
		if cv.Kind != value.KCFE {
			return 0, errf(pos, "value has no attributes")
		}
		v, err := attr.of(cv.CFE)
		return v.AsInt(), err
	}
	if c.walk {
		return exprOperand(read), true
	}
	lower := strings.ToLower(x.Name)
	i := len(c.consts)
	for j, k := range c.consts {
		if k.cell == cell && k.attr == lower {
			i = j
		}
	}
	if i == len(c.consts) {
		c.consts = append(c.consts, bindConst{cell: cell, attr: lower, read: attr})
	}
	return operand{kind: leafReg, idx: c.nRegs + i, fn: read}, true
}

// indexInt lowers a container read with numeric elements on a
// directly-named container cell (and, for dicts, a numeric key type,
// whose key conversion is AsInt — the unboxed int64 key of the dict's
// int64 map); nil for any other read, which stays boxed.
func (c *compiler) indexInt(x *ast.IndexExpr) intFn {
	t := c.typeOf(x.X)
	if t.Elem == nil || !t.Elem.IsNumeric() || t.Kind == types.Dict && !t.Key.IsNumeric() {
		return nil
	}
	idx, ok := c.cellOf(x.X)
	if !ok {
		return nil
	}
	key := c.num(x.Index)
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
		// Out of range reads NULL, whose AsInt is 0.
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
// kind (the invalid-method error).
func sizeOf(rv *value.Value) (int64, bool) {
	switch rv.Kind {
	case value.KVector:
		return int64(len(rv.Vec.Elems)), true
	case value.KDict:
		return int64(rv.Dict.Len()), true
	}
	return 0, false
}

// sizeInt lowers recv.size(), reading a directly-named container cell in
// place; nil for any other call.
func (c *compiler) sizeInt(x *ast.CallExpr) intFn {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "size" {
		return nil
	}
	pos, name := x.P, fun.Name
	if idx, ok := c.cellOf(fun.X); ok {
		return func(fr *frame) (int64, error) {
			if n, ok := sizeOf(fr.cells[idx]); ok {
				return n, nil
			}
			return 0, errf(pos, "invalid method %q", name)
		}
	}
	recv := c.val(fun.X)
	return func(fr *frame) (int64, error) {
		rv, err := recv(fr)
		if err != nil {
			return 0, err
		}
		if n, ok := sizeOf(&rv); ok {
			return n, nil
		}
		return 0, errf(pos, "invalid method %q", name)
	}
}

func isArith(op token.Kind) bool {
	switch op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR:
		return true
	}
	return false
}

// intArith returns the closure for l op r, one per arithmetic operator.
// A division by zero is reported at pos.
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
