// Package value implements the Cinnamon runtime value model used by both
// the analysis stage (instrumentation-time evaluation) and the execution
// stage (instrumented actions): numbers, booleans, strings/lines, opcode
// and operand handles, NULL, dicts, vectors, static arrays, file handles,
// and control-flow-element references.
//
// A dict's storage follows its declared types, as the emitted C++ does
// (std::map<int64_t, int64_t> for a dict<int,int>): numeric keys key the
// Go map by int64 and string keys by string, numeric elements are stored
// as bare int64 and every other element type as a Value. Only Get boxes
// an element back into a Value; compiled action bodies read and write a
// numeric dict's map[int64]int64 directly.
package value

import (
	"fmt"
	"maps"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/isa"
)

// Kind classifies a runtime value.
type Kind int

// Value kinds.
const (
	KNull Kind = iota
	KInt       // all numeric types share one representation
	KBool
	KString // strings and lines
	KOpcode
	KOperand
	KDict
	KVector
	KArray
	KFile
	KCFE
)

// Value is a Cinnamon runtime value.
type Value struct {
	Kind Kind
	Int  int64
	Bool bool
	Str  string
	Op   isa.Op
	Opnd isa.Operand
	Dict *DictVal
	Vec  *VectorVal
	Arr  *ArrayVal
	File *FileVal
	CFE  *CFERef
}

// Null is the NULL value.
var Null = Value{Kind: KNull}

// IntVal returns a numeric value.
func IntVal(v int64) Value { return Value{Kind: KInt, Int: v} }

// UintVal returns a numeric value from an unsigned word.
func UintVal(v uint64) Value { return Value{Kind: KInt, Int: int64(v)} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{Kind: KBool, Bool: b} }

// StrVal returns a string value.
func StrVal(s string) Value { return Value{Kind: KString, Str: s} }

// OpcodeVal returns an opcode value.
func OpcodeVal(op isa.Op) Value { return Value{Kind: KOpcode, Op: op} }

// OperandVal returns an operand-handle value.
func OperandVal(op isa.Operand) Value { return Value{Kind: KOperand, Opnd: op} }

// AsInt coerces the value to an integer: numbers are themselves, bools are
// 0/1, NULL is 0, and strings/lines parse as decimal or hex (0 if
// unparseable — loose, like the paper's examples that feed file lines into
// address vectors).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KInt:
		return v.Int
	case KBool:
		if v.Bool {
			return 1
		}
		return 0
	case KString:
		n, err := strconv.ParseInt(v.Str, 0, 64)
		if err != nil {
			return 0
		}
		return n
	case KOpcode:
		return int64(v.Op)
	}
	return 0
}

// AsBool coerces the value to a condition: booleans are themselves,
// numbers are non-zero, NULL is false, strings are non-empty.
func (v Value) AsBool() bool {
	switch v.Kind {
	case KBool:
		return v.Bool
	case KInt:
		return v.Int != 0
	case KString:
		return v.Str != ""
	case KNull:
		return false
	}
	return true
}

// String renders the value for print().
func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.Int, 10)
	case KBool:
		return strconv.FormatBool(v.Bool)
	case KString:
		return v.Str
	case KOpcode:
		return v.Op.String()
	case KOperand:
		return v.Opnd.String()
	case KDict:
		return fmt.Sprintf("dict(%d entries)", v.Dict.Len())
	case KVector:
		return fmt.Sprintf("vector(%d elements)", len(v.Vec.Elems))
	case KArray:
		return fmt.Sprintf("array[%d]", len(v.Arr.Elems))
	case KFile:
		return fmt.Sprintf("file(%s)", v.File.Name)
	case KCFE:
		return v.CFE.String()
	}
	return "<invalid>"
}

// Equal implements == for Cinnamon values. NULL equals NULL, numeric
// zero, and the empty string (so `dictlookup != NULL` detects missing
// entries, as Figure 7 relies on).
func Equal(a, b Value) bool {
	if a.Kind == KNull || b.Kind == KNull {
		x := a
		if a.Kind == KNull {
			x = b
		}
		switch x.Kind {
		case KNull:
			return true
		case KInt:
			return x.Int == 0
		case KString:
			return x.Str == ""
		case KBool:
			return !x.Bool
		}
		return false
	}
	switch {
	case a.Kind == KOpcode && b.Kind == KOpcode:
		return a.Op == b.Op
	case a.Kind == KString && b.Kind == KString:
		return a.Str == b.Str
	case a.Kind == KBool && b.Kind == KBool:
		return a.Bool == b.Bool
	default:
		return a.AsInt() == b.AsInt()
	}
}

// DictVal is a dictionary laid out by its declared types: a numeric key
// type keys the Go map by int64 and a string key type by string; numeric
// elements are stored as bare int64, every other element type as a Value.
// Exactly one of the four maps is non-nil. Every access converts its key
// to the key type — a line "16" addresses the numeric key 16, NULL
// addresses 0 or "" (NULL equals "" in Cinnamon) — and a missing key
// reads as the element type's zero value (NULL-comparable), matching the
// paper's usage.
type DictVal struct {
	// Ints is the layout of dict<numeric,numeric>, which compiled action
	// bodies read and write directly.
	Ints    map[int64]int64
	IntVals map[int64]Value
	StrInts map[string]int64
	StrVals map[string]Value
	// zero is what a missing key reads as.
	zero Value
}

// NewDict returns an empty dict for a key type that is a string (strKeys)
// or numeric, and an element type whose zero value is elemZero. A numeric
// zero — the zero value of exactly the numeric types — stores elements as
// int64.
func NewDict(strKeys bool, elemZero Value) *DictVal {
	d := &DictVal{zero: elemZero}
	ints := elemZero.Kind == KInt
	switch {
	case !strKeys && ints:
		d.Ints = make(map[int64]int64)
	case !strKeys:
		d.IntVals = make(map[int64]Value)
	case ints:
		d.StrInts = make(map[string]int64)
	default:
		d.StrVals = make(map[string]Value)
	}
	return d
}

// strKey converts a key to a string key type.
func strKey(k Value) string {
	switch k.Kind {
	case KString:
		return k.Str
	case KNull:
		return ""
	}
	return k.String()
}

func lookup[K comparable](m map[K]Value, k K, zero Value) Value {
	if v, ok := m[k]; ok {
		return v
	}
	return zero
}

// Get returns the value for the key (the zero element if missing).
func (d *DictVal) Get(k Value) Value {
	switch {
	case d.Ints != nil:
		return IntVal(d.Ints[k.AsInt()])
	case d.IntVals != nil:
		return lookup(d.IntVals, k.AsInt(), d.zero)
	case d.StrInts != nil:
		return IntVal(d.StrInts[strKey(k)])
	}
	return lookup(d.StrVals, strKey(k), d.zero)
}

// Set stores a value, already converted to the element type, under the
// key.
func (d *DictVal) Set(k, v Value) {
	switch {
	case d.Ints != nil:
		d.Ints[k.AsInt()] = v.AsInt()
	case d.IntVals != nil:
		d.IntVals[k.AsInt()] = v
	case d.StrInts != nil:
		d.StrInts[strKey(k)] = v.AsInt()
	default:
		d.StrVals[strKey(k)] = v
	}
}

// Has reports whether the key is present.
func (d *DictVal) Has(k Value) bool {
	var ok bool
	switch {
	case d.Ints != nil:
		_, ok = d.Ints[k.AsInt()]
	case d.IntVals != nil:
		_, ok = d.IntVals[k.AsInt()]
	case d.StrInts != nil:
		_, ok = d.StrInts[strKey(k)]
	default:
		_, ok = d.StrVals[strKey(k)]
	}
	return ok
}

// Len returns the entry count.
func (d *DictVal) Len() int {
	return len(d.Ints) + len(d.IntVals) + len(d.StrInts) + len(d.StrVals)
}

// VectorVal is a growable vector.
type VectorVal struct {
	Elems []Value
}

// Add appends an element.
func (v *VectorVal) Add(e Value) { v.Elems = append(v.Elems, e) }

// Has reports whether an equal element is present.
func (v *VectorVal) Has(e Value) bool {
	for _, x := range v.Elems {
		if Equal(x, e) {
			return true
		}
	}
	return false
}

// Get returns element i (NULL if out of range).
func (v *VectorVal) Get(i int64) Value {
	if i < 0 || i >= int64(len(v.Elems)) {
		return Null
	}
	return v.Elems[i]
}

// ArrayVal is a fixed-size array.
type ArrayVal struct {
	Elems []Value
}

// FileVal is an open tool file. Writes append lines; reads consume lines
// sequentially. A single handle is shared across the analysis and
// execution stages, which is how Figure 9's analysis output becomes the
// init block's input.
type FileVal struct {
	Name    string
	Lines   []string
	ReadPos int
}

// WriteLine appends one line.
func (f *FileVal) WriteLine(s string) { f.Lines = append(f.Lines, s) }

// GetLine reads the next line, or NULL at end of file.
func (f *FileVal) GetLine() Value {
	if f.ReadPos >= len(f.Lines) {
		return Null
	}
	s := f.Lines[f.ReadPos]
	f.ReadPos++
	return Value{Kind: KString, Str: s}
}

// CFERef is a bound control-flow element: the value of a command's CFE
// variable. Static attributes are computed from the referenced CFG
// structures; dynamic attributes are materialized per probe invocation by
// the backend.
type CFERef struct {
	Kind   ast.EType
	Inst   *isa.Inst
	Block  *cfg.Block
	Func   *cfg.Func
	Loop   *cfg.Loop
	Module *cfg.Module
	Prog   *cfg.Program
}

func (r *CFERef) String() string {
	switch r.Kind {
	case ast.Inst:
		return fmt.Sprintf("inst@%#x", r.Inst.Addr)
	case ast.BasicBlock:
		return fmt.Sprintf("basicblock@%#x", r.Block.Start)
	case ast.Func:
		return fmt.Sprintf("func %s", r.Func.Name)
	case ast.Loop:
		return fmt.Sprintf("loop %d", r.Loop.ID)
	case ast.Module:
		return fmt.Sprintf("module %s", r.Module.Name())
	}
	return "cfe?"
}

// CFEVal wraps a CFE reference as a value.
func CFEVal(r *CFERef) Value { return Value{Kind: KCFE, CFE: r} }

// Copy returns a value-snapshot of v: containers are deep-copied so that
// action closures capture analysis data by value (the paper's "static
// data passed as arguments to callbacks"), while files stay shared.
func Copy(v Value) Value {
	switch v.Kind {
	case KDict:
		d := v.Dict
		nd := &DictVal{
			Ints: maps.Clone(d.Ints), IntVals: maps.Clone(d.IntVals),
			StrInts: maps.Clone(d.StrInts), StrVals: maps.Clone(d.StrVals),
			zero: d.zero,
		}
		return Value{Kind: KDict, Dict: nd}
	case KVector:
		nv := &VectorVal{Elems: append([]Value(nil), v.Vec.Elems...)}
		return Value{Kind: KVector, Vec: nv}
	case KArray:
		na := &ArrayVal{Elems: append([]Value(nil), v.Arr.Elems...)}
		return Value{Kind: KArray, Arr: na}
	default:
		return v
	}
}
