package value

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestCoercions(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
	}{
		{IntVal(-7), -7},
		{UintVal(7), 7},
		{BoolVal(true), 1},
		{BoolVal(false), 0},
		{StrVal("123"), 123},
		{StrVal("0x10"), 16},
		{StrVal("junk"), 0},
		{Null, 0},
		{OpcodeVal(isa.Load), int64(isa.Load)},
	}
	for _, c := range cases {
		if got := c.v.AsInt(); got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	bools := []struct {
		v    Value
		want bool
	}{
		{IntVal(0), false}, {IntVal(3), true},
		{BoolVal(true), true}, {Null, false},
		{StrVal(""), false}, {StrVal("x"), true},
	}
	for _, c := range bools {
		if got := c.v.AsBool(); got != c.want {
			t.Errorf("AsBool(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	// NULL equals NULL, numeric zero and the empty string — the rule
	// Figure 7's missing-dict-entry test depends on.
	if !Equal(Null, Null) || !Equal(Null, IntVal(0)) || !Equal(IntVal(0), Null) {
		t.Error("NULL/zero equality broken")
	}
	if !Equal(Null, StrVal("")) || Equal(Null, StrVal("x")) || Equal(Null, IntVal(5)) {
		t.Error("NULL/string equality broken")
	}
	if !Equal(Null, BoolVal(false)) || Equal(Null, BoolVal(true)) {
		t.Error("NULL/bool equality broken")
	}
	if !Equal(StrVal("a"), StrVal("a")) || Equal(StrVal("a"), StrVal("b")) {
		t.Error("string equality broken")
	}
	if !Equal(OpcodeVal(isa.Load), OpcodeVal(isa.Load)) || Equal(OpcodeVal(isa.Load), OpcodeVal(isa.Store)) {
		t.Error("opcode equality broken")
	}
	if !Equal(IntVal(5), UintVal(5)) {
		t.Error("numeric equality broken")
	}
}

func TestDictSemantics(t *testing.T) {
	d := NewDict(false, IntVal(0))
	if d.Has(IntVal(1)) || d.Len() != 0 {
		t.Error("fresh dict not empty")
	}
	// Missing keys return the element zero value.
	if got := d.Get(IntVal(9)); got.Kind != KInt || got.Int != 0 {
		t.Errorf("missing key = %v", got)
	}
	d.Set(IntVal(9), IntVal(42))
	if got := d.Get(IntVal(9)); got.Int != 42 {
		t.Errorf("get = %v", got)
	}
	if !d.Has(IntVal(9)) || d.Len() != 1 {
		t.Error("has/len wrong")
	}
	// A numeric key type converts every key to a number: lines parse,
	// unparseable text and NULL address 0.
	if d.Get(StrVal("9")).Int != 42 || !d.Has(StrVal("0x9")) {
		t.Error("line keys not converted to numbers")
	}
	d.Set(StrVal("k"), IntVal(7))
	if d.Get(IntVal(0)).Int != 7 || d.Get(Null).Int != 7 || d.Len() != 2 {
		t.Error("unparseable/NULL keys not converted to 0")
	}
	// Numeric keys compare by value regardless of original kind.
	d.Set(UintVal(100), IntVal(1))
	if d.Get(IntVal(100)).Int != 1 {
		t.Error("key normalization broken")
	}
	if d.Ints == nil || d.IntVals != nil {
		t.Error("dict<int,int> not stored as map[int64]int64")
	}
	// A string key type: NULL addresses "", since NULL equals "".
	s := NewDict(true, BoolVal(false))
	s.Set(Null, BoolVal(true))
	if !s.Get(StrVal("")).Bool || !s.Has(Null) || s.Len() != 1 {
		t.Error("NULL key on a string-keyed dict does not address \"\"")
	}
	if got := s.Get(StrVal("nope")); got.Kind != KBool || got.Bool {
		t.Errorf("missing boxed key = %v, want false", got)
	}
	if s.StrVals == nil || s.StrInts != nil {
		t.Error("dict<string,bool> not stored as map[string]Value")
	}
}

func TestQuickDictMatchesGoMap(t *testing.T) {
	f := func(keys []int64, vals []int64) bool {
		d := NewDict(false, IntVal(0))
		ref := map[int64]int64{}
		for i, k := range keys {
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			d.Set(IntVal(k), IntVal(v))
			ref[k] = v
		}
		if d.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if d.Get(IntVal(k)).Int != v || !d.Has(IntVal(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVector(t *testing.T) {
	v := &VectorVal{}
	v.Add(IntVal(1))
	v.Add(StrVal("10"))
	if !v.Has(IntVal(1)) || v.Has(IntVal(2)) {
		t.Error("has broken")
	}
	// Numeric comparison lets a line "10" match the address 10 — the
	// Figure 9 coercion.
	if !v.Has(IntVal(10)) {
		t.Error("line/number comparison broken")
	}
	if v.Get(0).Int != 1 || v.Get(5).Kind != KNull || v.Get(-1).Kind != KNull {
		t.Error("get broken")
	}
}

func TestFile(t *testing.T) {
	f := &FileVal{Name: "t.txt"}
	if f.GetLine().Kind != KNull {
		t.Error("empty file should return NULL")
	}
	f.WriteLine("a")
	f.WriteLine("b")
	if f.GetLine().Str != "a" || f.GetLine().Str != "b" {
		t.Error("line order wrong")
	}
	if f.GetLine().Kind != KNull {
		t.Error("EOF should return NULL")
	}
	// Writes after EOF are readable.
	f.WriteLine("c")
	if f.GetLine().Str != "c" {
		t.Error("write-after-read broken")
	}
}

func TestCopySemantics(t *testing.T) {
	d := NewDict(false, IntVal(0))
	d.Set(IntVal(1), IntVal(2))
	orig := Value{Kind: KDict, Dict: d}
	cp := Copy(orig)
	d.Set(IntVal(1), IntVal(99))
	if cp.Dict.Get(IntVal(1)).Int != 2 {
		t.Error("dict copy not deep")
	}
	// Every layout copies deeply and keeps its layout.
	sd := NewDict(true, StrVal(""))
	sd.Set(StrVal("a"), StrVal("x"))
	cps := Copy(Value{Kind: KDict, Dict: sd})
	sd.Set(StrVal("a"), StrVal("y"))
	if cps.Dict.StrVals == nil || cps.Dict.Get(StrVal("a")).Str != "x" {
		t.Error("dict<string,string> copy not deep")
	}
	vec := &VectorVal{Elems: []Value{IntVal(1)}}
	cpv := Copy(Value{Kind: KVector, Vec: vec})
	vec.Elems[0] = IntVal(9)
	if cpv.Vec.Elems[0].Int != 1 {
		t.Error("vector copy not deep")
	}
	arr := &ArrayVal{Elems: []Value{IntVal(1)}}
	cpa := Copy(Value{Kind: KArray, Arr: arr})
	arr.Elems[0] = IntVal(9)
	if cpa.Arr.Elems[0].Int != 1 {
		t.Error("array copy not deep")
	}
	// Scalars copy trivially.
	if Copy(IntVal(5)).Int != 5 {
		t.Error("scalar copy broken")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(-3), "-3"},
		{BoolVal(true), "true"},
		{StrVal("hi"), "hi"},
		{Null, "NULL"},
		{OpcodeVal(isa.Load), "load"},
		{OperandVal(isa.RegOp(isa.R3)), "r3"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}
