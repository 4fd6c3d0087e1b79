// Package types defines the Cinnamon type system: primitive numeric types
// (int, uint64, char, addr), bool, strings and file lines, the composite
// dict/vector/array types, files, and the instrumentation-specific opcode
// and operand types.
//
// Numeric types interconvert freely (the language is deliberately loose,
// like the paper's examples, which assign I.arg1 to both int and addr
// variables); line values coerce to numbers when used numerically, which
// is what lets Figure 9 read function addresses back from a file.
package types

import (
	"fmt"

	"repro/internal/core/ast"
	"repro/internal/core/token"
)

// Kind classifies a type.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Int
	UInt64
	Char
	Bool
	Addr
	String
	// Line is the type of file lines (string-like, numerically
	// coercible, comparable to NULL for end-of-file).
	Line
	// Opcode is the type of opcode literals and I.opcode.
	Opcode
	// Operand is the type of instruction operand handles (I.op1 ...),
	// testable with IsType.
	Operand
	// Null is the type of the NULL literal.
	Null
	// Void is the type of calls evaluated for effect.
	Void
	Dict
	Vector
	Array
	File
	// CFE is the type of control-flow-element variables bound by
	// commands.
	CFE
)

// Type is a Cinnamon type.
type Type struct {
	Kind Kind
	// Key and Elem parameterize Dict (key/value), Vector and Array
	// (element).
	Key, Elem *Type
	// Len is the static array length.
	Len int
	// EType is the control-flow-element kind for CFE types.
	EType ast.EType
}

var singletons = map[Kind]*Type{
	Int: {Kind: Int}, UInt64: {Kind: UInt64}, Char: {Kind: Char},
	Bool: {Kind: Bool}, Addr: {Kind: Addr}, String: {Kind: String},
	Line: {Kind: Line}, Opcode: {Kind: Opcode}, Operand: {Kind: Operand},
	Null: {Kind: Null}, Void: {Kind: Void}, File: {Kind: File},
}

// Basic returns the singleton for a non-composite kind.
func Basic(k Kind) *Type { return singletons[k] }

// NewCFE returns the type of a CFE variable.
func NewCFE(e ast.EType) *Type { return &Type{Kind: CFE, EType: e} }

// String renders the type in source syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Int:
		return "int"
	case UInt64:
		return "uint64"
	case Char:
		return "char"
	case Bool:
		return "bool"
	case Addr:
		return "addr"
	case String:
		return "string"
	case Line:
		return "line"
	case Opcode:
		return "opcode"
	case Operand:
		return "operand"
	case Null:
		return "null"
	case Void:
		return "void"
	case File:
		return "file"
	case Dict:
		return fmt.Sprintf("dict<%s,%s>", t.Key, t.Elem)
	case Vector:
		return fmt.Sprintf("vector<%s>", t.Elem)
	case Array:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case CFE:
		return t.EType.String()
	}
	return "invalid"
}

// IsNumeric reports whether values of the type behave as integers.
func (t *Type) IsNumeric() bool {
	switch t.Kind {
	case Int, UInt64, Char, Addr:
		return true
	}
	return false
}

// IsStringy reports whether values of the type behave as text.
func (t *Type) IsStringy() bool { return t.Kind == String || t.Kind == Line }

// AssignableTo reports whether a value of type t may be assigned to a
// variable of type dst.
func (t *Type) AssignableTo(dst *Type) bool {
	if t == nil || dst == nil {
		return false
	}
	switch {
	case t.Kind == dst.Kind && t.Kind != Dict && t.Kind != Vector && t.Kind != Array:
		return true
	case t.IsNumeric() && dst.IsNumeric():
		return true
	case t.Kind == Line && (dst.IsNumeric() || dst.Kind == String):
		// Lines coerce to numbers (parsed) and to strings.
		return true
	case t.Kind == Null && (dst.IsNumeric() || dst.IsStringy()):
		return true
	case t.Kind == Bool && dst.Kind == Bool:
		return true
	case (t.Kind == Dict || t.Kind == Vector || t.Kind == Array) && t.Kind == dst.Kind:
		// Assignment shares the container without converting its
		// elements, so its key and element types must already match.
		return sameScalar(t.Elem, dst.Elem) && (t.Kind != Dict || sameScalar(t.Key, dst.Key))
	}
	return false
}

// sameScalar reports whether two container key or element types are the
// same type, every numeric type counting as one.
func sameScalar(a, b *Type) bool {
	return a.Kind == b.Kind || a.IsNumeric() && b.IsNumeric()
}

// ComparableWith reports whether ==/!= is defined between the types.
func (t *Type) ComparableWith(o *Type) bool {
	switch {
	case t.IsNumeric() && o.IsNumeric():
		return true
	case t.IsStringy() && o.IsStringy():
		return true
	case t.Kind == Opcode && o.Kind == Opcode:
		return true
	case t.Kind == Bool && o.Kind == Bool:
		return true
	case t.Kind == Null || o.Kind == Null:
		return t.nullComparable() && o.nullComparable()
	case t.Kind == Line && o.IsNumeric(), t.IsNumeric() && o.Kind == Line:
		return true
	}
	return false
}

func (t *Type) nullComparable() bool {
	return t.Kind == Null || t.IsNumeric() || t.IsStringy()
}

// OrderedWith reports whether </<=/>/>= is defined between the types.
func (t *Type) OrderedWith(o *Type) bool {
	if t.IsNumeric() && o.IsNumeric() {
		return true
	}
	if t.IsStringy() && o.IsStringy() {
		return true
	}
	return false
}

// ValidDictKey reports whether the type may key a dict.
func (t *Type) ValidDictKey() bool { return t.IsNumeric() || t.Kind == String }

// FromSpec resolves a parsed type specification.
func FromSpec(ts *ast.TypeSpec) (*Type, error) {
	var base *Type
	switch ts.Kind {
	case token.TINT:
		base = Basic(Int)
	case token.TUINT64:
		base = Basic(UInt64)
	case token.TCHAR:
		base = Basic(Char)
	case token.TBOOL:
		base = Basic(Bool)
	case token.TADDR:
		base = Basic(Addr)
	case token.TSTRING:
		base = Basic(String)
	case token.TLINE:
		base = Basic(Line)
	case token.TFILE:
		base = Basic(File)
	case token.TDICT:
		key, err := FromSpec(ts.Key)
		if err != nil {
			return nil, err
		}
		elem, err := FromSpec(ts.Elem)
		if err != nil {
			return nil, err
		}
		if !key.ValidDictKey() {
			return nil, fmt.Errorf("invalid dict key type %s", key)
		}
		if elem.Kind == File || elem.Kind == Dict || elem.Kind == Vector {
			return nil, fmt.Errorf("invalid dict value type %s", elem)
		}
		base = &Type{Kind: Dict, Key: key, Elem: elem}
	case token.TVECTOR:
		elem, err := FromSpec(ts.Elem)
		if err != nil {
			return nil, err
		}
		if elem.Kind == File || elem.Kind == Dict || elem.Kind == Vector {
			return nil, fmt.Errorf("invalid vector element type %s", elem)
		}
		base = &Type{Kind: Vector, Elem: elem}
	default:
		return nil, fmt.Errorf("invalid type")
	}
	if ts.ArrayLen > 0 {
		if !base.IsNumeric() && base.Kind != Bool {
			return nil, fmt.Errorf("invalid array element type %s", base)
		}
		return &Type{Kind: Array, Elem: base, Len: ts.ArrayLen}, nil
	}
	return base, nil
}
