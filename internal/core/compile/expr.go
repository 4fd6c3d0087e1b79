package compile

// Boxed values and conditions. An expression the interpreter would
// evaluate to a string, line, opcode, operand, CFE, container or file is
// lowered to a Value closure; a numeric one reaching a Value consumer
// (print, writeToFile, a comparison with a line) is its operand boxed
// once; and a bool-typed one consumed as a condition is a bool closure.
// Each mirrors the interpreter exactly — same evaluation order, same
// coercions, same runtime error messages and positions.

import (
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
	"repro/internal/isa"
)

func constFn(v value.Value) exprFn {
	return func(*frame) (value.Value, error) { return v, nil }
}

func errFn(pos token.Pos, format string, args ...any) exprFn {
	err := errf(pos, format, args...)
	return func(*frame) (value.Value, error) { return value.Null, err }
}

// boxed boxes a numeric operand: IntVal of its integer.
func boxed(o operand) exprFn {
	return func(fr *frame) (value.Value, error) {
		n, err := o.get(fr)
		if err != nil {
			return value.Null, err
		}
		return value.IntVal(n), nil
	}
}

// boxedBool boxes a condition: BoolVal of its truth.
func boxedBool(f boolFn) exprFn {
	return func(fr *frame) (value.Value, error) {
		b, err := f(fr)
		if err != nil {
			return value.Null, err
		}
		return value.BoolVal(b), nil
	}
}

// val lowers e to its boxed value. Reads of storage (names, attributes,
// container elements) and calls keep the value the storage holds; numeric
// and bool operators are lowered unboxed and boxed once here.
func (c *compiler) val(e ast.Expr) exprFn {
	switch x := e.(type) {
	case *ast.IntLit:
		return constFn(value.IntVal(x.Val))
	case *ast.CharLit:
		return constFn(value.IntVal(int64(x.Val)))
	case *ast.StringLit:
		return constFn(value.StrVal(x.Val))
	case *ast.BoolLit:
		return constFn(value.BoolVal(x.Val))
	case *ast.NullLit:
		return constFn(value.Null)
	case *ast.OpcodeLit:
		op, ok := interp.OpcodeFromName(x.Name)
		if !ok {
			return errFn(x.P, "unknown opcode %s", x.Name)
		}
		return constFn(value.OpcodeVal(op))
	case *ast.Ident:
		sl, ok := c.resolve(x.Name)
		if !ok {
			return errFn(x.P, "undefined: %s", x.Name)
		}
		idx := sl.idx
		switch sl.kind {
		case slotReg:
			return boxed(regOperand(idx))
		case slotLocal:
			return func(fr *frame) (value.Value, error) { return fr.locals[idx], nil }
		}
		return func(fr *frame) (value.Value, error) { return *fr.cells[idx], nil }
	case *ast.FieldExpr:
		return c.field(x)
	case *ast.IndexExpr:
		return c.index(x)
	case *ast.CallExpr:
		return c.call(x)
	case *ast.IsTypeExpr:
		return boxedBool(c.cond(e))
	case *ast.UnaryExpr:
		switch x.Op {
		case token.MINUS:
			return boxed(c.num(e))
		case token.NOT:
			return boxedBool(c.cond(e))
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR, token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE:
			return boxedBool(c.cond(e))
		}
		if isArith(x.Op) {
			return boxed(c.num(e))
		}
	}
	return errFn(e.Pos(), "invalid expression")
}

func (c *compiler) field(x *ast.FieldExpr) exprFn {
	if c.info.DynamicExprs[x] {
		if o, ok := c.dynOperand(x); ok {
			return boxed(o)
		}
		// No slot: the body has no probe context for this attribute (an
		// init/exit block, or a mismatched CFE variable).
		key := x.X.(*ast.Ident).Name + "." + strings.ToLower(x.Name)
		return errFn(x.P, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
	}
	if o, ok := c.constOperand(x); ok {
		return boxed(o)
	}
	attr, pos := c.attrOf(x), x.P
	if cell, ok := c.cellOf(x.X); ok {
		return func(fr *frame) (value.Value, error) {
			cv := fr.cells[cell]
			if cv.Kind != value.KCFE {
				return value.Null, errf(pos, "value has no attributes")
			}
			return attr.of(cv.CFE)
		}
	}
	base := c.val(x.X)
	return func(fr *frame) (value.Value, error) {
		bv, err := base(fr)
		if err != nil {
			return value.Null, err
		}
		if bv.Kind != value.KCFE {
			return value.Null, errf(pos, "value has no attributes")
		}
		return attr.of(bv.CFE)
	}
}

// index reads a container element as the value the container holds: a
// vector yields NULL out of range, which no integer stands for.
func (c *compiler) index(x *ast.IndexExpr) exprFn {
	base := c.val(x.X)
	index := c.val(x.Index)
	pos := x.P
	return func(fr *frame) (value.Value, error) {
		bv, err := base(fr)
		if err != nil {
			return value.Null, err
		}
		iv, err := index(fr)
		if err != nil {
			return value.Null, err
		}
		switch bv.Kind {
		case value.KDict:
			return bv.Dict.Get(iv), nil
		case value.KVector:
			return bv.Vec.Get(iv.AsInt()), nil
		case value.KArray:
			i := iv.AsInt()
			if i < 0 || i >= int64(len(bv.Arr.Elems)) {
				return value.Null, errf(pos, "array index %d out of range [0,%d)", i, len(bv.Arr.Elems))
			}
			return bv.Arr.Elems[i], nil
		}
		return value.Null, errf(pos, "value is not indexable")
	}
}

// call lowers a call used as a value. print, writeToFile and add are
// statements that yield no value; has and size are a condition and a
// number, boxed.
func (c *compiler) call(x *ast.CallExpr) exprFn {
	if s := c.callStmt(x); s != nil {
		return func(fr *frame) (value.Value, error) { return value.Value{}, s(fr) }
	}
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok {
		if id, ok := x.Fun.(*ast.Ident); ok {
			return errFn(x.P, "unknown function %q", id.Name)
		}
		return errFn(x.P, "invalid call")
	}
	switch fun.Name {
	case "has":
		return boxedBool(c.cond(x))
	case "size":
		return boxed(c.num(x))
	}
	recv := c.val(fun.X)
	pos, name := x.P, fun.Name
	return func(fr *frame) (value.Value, error) {
		rv, err := recv(fr)
		if err != nil {
			return value.Null, err
		}
		if name != "getline" || rv.Kind != value.KFile {
			return value.Null, errf(pos, "invalid method %q", name)
		}
		return rv.File.GetLine(), nil
	}
}

// cond lowers a condition to its truth, AsBool() of its value.
func (c *compiler) cond(e ast.Expr) boolFn {
	switch x := e.(type) {
	case *ast.BoolLit:
		b := x.Val
		return func(*frame) (bool, error) { return b, nil }
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			sub := c.cond(x.X)
			return func(fr *frame) (bool, error) {
				b, err := sub(fr)
				return !b, err
			}
		}
	case *ast.CallExpr:
		if f := c.has(x); f != nil {
			return f
		}
	case *ast.IsTypeExpr:
		return c.isType(x)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			l, r := c.cond(x.X), c.cond(x.Y)
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
			return c.compare(x)
		}
	}
	v := c.val(e)
	return func(fr *frame) (bool, error) {
		x, err := v(fr)
		return x.AsBool(), err
	}
}

// compare lowers a comparison. Numeric operands hold integer-shaped
// values (KInt, or NULL for a vector read out of range), on which
// value.Equal and the ordered comparison both reduce to comparing AsInt
// coercions, and value.Equal of such a value and NULL is a test for
// zero, NULL's AsInt; every other pairing compares boxed values.
func (c *compiler) compare(x *ast.BinaryExpr) boolFn {
	lt, rt := c.typeOf(x.X), c.typeOf(x.Y)
	if lt.IsNumeric() && (rt.IsNumeric() || rt.Kind == types.Null) || lt.Kind == types.Null && rt.IsNumeric() {
		return intCompare(x.Op, c.num(x.X), c.num(x.Y))
	}
	if lt.Kind == types.Opcode && rt.Kind == types.Opcode && (x.Op == token.EQ || x.Op == token.NEQ) {
		return opCompare(x.Op == token.EQ, c.opcode(x.X), c.opcode(x.Y))
	}
	l, r := c.val(x.X), c.val(x.Y)
	op := x.Op
	return func(fr *frame) (bool, error) {
		lv, err := l(fr)
		if err != nil {
			return false, err
		}
		rv, err := r(fr)
		if err != nil {
			return false, err
		}
		switch op {
		case token.EQ:
			return value.Equal(lv, rv), nil
		case token.NEQ:
			return !value.Equal(lv, rv), nil
		}
		cmp := 0
		if lv.Kind == value.KString && rv.Kind == value.KString {
			cmp = strings.Compare(lv.Str, rv.Str)
		} else if a, b := lv.AsInt(), rv.AsInt(); a != b {
			cmp = 1
			if a < b {
				cmp = -1
			}
		}
		switch op {
		case token.LT:
			return cmp < 0, nil
		case token.LE:
			return cmp <= 0, nil
		case token.GT:
			return cmp > 0, nil
		}
		return cmp >= 0, nil
	}
}

// intCompare returns the closure for l op r on numeric operands, one per
// comparison operator.
func intCompare(op token.Kind, l, r operand) boolFn {
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
	}
	return func(fr *frame) (bool, error) {
		a, b, err := operands(fr, l, r)
		return a >= b, err
	}
}

// opOperand is a lowered opcode-typed expression. The only two are an
// opcode literal, the constant op when lit is set, and an instruction's
// opcode attribute, read in place from the instruction in cell when cell
// >= 0. fn evaluates any other expression and is the fallback of a cell
// that holds no instruction, which reports the attribute's error. Every
// such expression evaluates to a KOpcode value or fails, so
// value.Equal of two of them is the comparison of their opcodes.
type opOperand struct {
	lit  bool
	op   isa.Op
	cell int
	fn   func(fr *frame) (isa.Op, error)
}

func (o opOperand) get(fr *frame) (isa.Op, error) {
	if o.lit {
		return o.op, nil
	}
	if o.cell >= 0 {
		if cv := fr.cells[o.cell]; cv.Kind == value.KCFE && cv.CFE.Kind == ast.Inst {
			return cv.CFE.Inst.Op, nil
		}
	}
	return o.fn(fr)
}

// opcode lowers an opcode-typed expression.
func (c *compiler) opcode(e ast.Expr) opOperand {
	v := c.val(e)
	o := opOperand{cell: -1, fn: func(fr *frame) (isa.Op, error) {
		x, err := v(fr)
		return x.Op, err
	}}
	switch x := e.(type) {
	case *ast.OpcodeLit:
		o.op, o.lit = interp.OpcodeFromName(x.Name)
	case *ast.FieldExpr:
		if cell, ok := c.cellOf(x.X); ok && strings.EqualFold(x.Name, "opcode") && c.typeOf(x.X).EType == ast.Inst {
			o.cell = cell
		}
	}
	return o
}

// opCompare returns the closure for l == r (eq) or l != r on opcodes.
func opCompare(eq bool, l, r opOperand) boolFn {
	if r.lit {
		op := r.op
		return func(fr *frame) (bool, error) {
			a, err := l.get(fr)
			return (a == op) == eq, err
		}
	}
	return func(fr *frame) (bool, error) {
		a, err := l.get(fr)
		if err != nil {
			return false, err
		}
		b, err := r.get(fr)
		return (a == b) == eq, err
	}
}

func (c *compiler) isType(x *ast.IsTypeExpr) boolFn {
	sub := c.val(x.X)
	var want isa.OperandKind
	switch x.OpType {
	case token.KMEM:
		want = isa.KindMem
	case token.KREG:
		want = isa.KindReg
	case token.KCONST:
		want = isa.KindImm
	}
	pos := x.P
	return func(fr *frame) (bool, error) {
		v, err := sub(fr)
		if err != nil {
			return false, err
		}
		if v.Kind != value.KOperand {
			return false, errf(pos, "IsType requires an operand")
		}
		return v.Opnd.Kind == want, nil
	}
}

// has lowers r.has(k); nil for any other call. The receiver's kind is
// checked before the argument is evaluated. A numeric vector compares
// AsInt coercions — value.Equal(e, IntVal(k)) is AsInt(e) == k for every
// element kind, NULL included — and a numeric dict probes its int64 map.
func (c *compiler) has(x *ast.CallExpr) boolFn {
	fun, ok := x.Fun.(*ast.FieldExpr)
	if !ok || fun.Name != "has" {
		return nil
	}
	pos, name := x.P, fun.Name
	t := c.typeOf(fun.X)
	if idx, ok := c.cellOf(fun.X); ok && t.Elem != nil && t.Elem.IsNumeric() && (t.Kind == types.Vector || t.Key.IsNumeric()) {
		arg := c.num(x.Args[0])
		if t.Kind == types.Vector {
			return func(fr *frame) (bool, error) {
				rv := fr.cells[idx]
				if rv.Kind != value.KVector {
					return false, errf(pos, "invalid method %q", name)
				}
				k, err := arg.get(fr)
				if err != nil {
					return false, err
				}
				for i := range rv.Vec.Elems {
					if asIntRef(&rv.Vec.Elems[i]) == k {
						return true, nil
					}
				}
				return false, nil
			}
		}
		return func(fr *frame) (bool, error) {
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
	recv, arg := c.val(fun.X), c.val(x.Args[0])
	elemT := c.elemTypeOf(fun.X)
	return func(fr *frame) (bool, error) {
		rv, err := recv(fr)
		if err != nil {
			return false, err
		}
		if rv.Kind != value.KVector && rv.Kind != value.KDict {
			return false, errf(pos, "invalid method %q", name)
		}
		v, err := arg(fr)
		if err != nil {
			return false, err
		}
		if rv.Kind == value.KDict {
			return rv.Dict.Has(v), nil
		}
		return rv.Vec.Has(interp.Convert(v, elemT)), nil
	}
}

func (c *compiler) elemTypeOf(base ast.Expr) *types.Type {
	if t := c.typeOf(base); t.Elem != nil {
		return t.Elem
	}
	return types.Basic(types.Int)
}
