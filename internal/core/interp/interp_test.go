package interp

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core/ast"
	"repro/internal/core/parser"
	"repro/internal/core/sem"
	"repro/internal/core/types"
	"repro/internal/core/value"
	"repro/internal/isa"
)

// runProgram compiles a Cinnamon program consisting of globals and
// init/exit blocks and executes those blocks; it returns the print output.
func runProgram(t *testing.T, src string) string {
	t.Helper()
	out, err := tryRunProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func tryRunProgram(src string) (string, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	in := New(info, &buf, NewFS())
	globals := NewEnv(nil)
	for _, d := range info.Globals {
		if err := in.DeclareGlobal(globals, d); err != nil {
			return buf.String(), err
		}
	}
	for _, b := range info.Inits {
		if err := in.ExecStmts(NewEnv(globals), b.Body); err != nil {
			return buf.String(), err
		}
	}
	for _, b := range info.Exits {
		if err := in.ExecStmts(NewEnv(globals), b.Body); err != nil {
			return buf.String(), err
		}
	}
	return buf.String(), nil
}

func TestArithmeticAndControlFlow(t *testing.T) {
	out := runProgram(t, `
init {
  int sum = 0;
  for (int i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) {
      sum = sum + i;
    } else {
      sum = sum + 1;
    }
  }
  print(sum);               // 0+1+2+1+4+1+6+1+8+1 = 25
  print(7 / 2, 7 % 2, 3 * 4, 10 - 3);
  print(6 & 3, 6 | 3, 6 ^ 3, 1 << 4, 256 >> 4);
  print(-5, !true, !false);
  print(2 < 3 && 3 <= 3 || false);
  print("a" < "b", "b" < "a");
}
`)
	want := "25\n3 1 12 7\n2 7 5 16 16\n-5 false true\ntrue\ntrue false\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestDictSemantics(t *testing.T) {
	out := runProgram(t, `
dict<addr,int> freed;
dict<addr,addr> base_table;
init {
  freed[4096] = 1;
  base_table[100] = 4096;
  if (base_table[100] != NULL) { print("present"); }
  if (base_table[200] != NULL) { print("bug"); }
  if (base_table[200] == NULL) { print("missing-is-null"); }
  print(freed[4096], freed[5000]);
  print(freed.has(4096), freed.has(5000), freed.size());
}
`)
	want := "present\nmissing-is-null\n1 0\ntrue false 1\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
	// Index reads, index stores and has convert the key to the declared
	// key type: a line addresses the number it parses to, and NULL
	// addresses "" in a string-keyed dict (NULL equals "").
	out = runProgram(t, `
file f("keys.txt");
dict<int,int> d;
dict<string,int> s;
init {
  writeToFile(f, 16);
  line l = f.getline();
  d[l] = 7;
  print(d[16], d.has(l));
  d[16] = 9;
  print(d[l], d.size());
  line eof = f.getline();
  s[eof] = 3;
  s[NULL] = s[NULL] + 1;
  print(s[""], s.has(NULL), s.has(""), s.size());
}
`)
	want = "7 true\n9 1\n4 true true 1\n"
	if out != want {
		t.Errorf("key conversion: output = %q, want %q", out, want)
	}
}

func TestVectorAndArray(t *testing.T) {
	out := runProgram(t, `
vector<addr> v;
int arr[4];
init {
  v.add(10);
  v.add(20);
  print(v.size(), v.has(10), v.has(30));
  print(v[0], v[1]);
  arr[0] = 5;
  arr[3] = arr[0] * 2;
  print(arr[0], arr[1], arr[3]);
}
`)
	want := "2 true false\n10 20\n5 0 10\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFileRoundTrip(t *testing.T) {
	out := runProgram(t, `
file f("data.txt");
vector<addr> addrs;
init {
  writeToFile(f, 100);
  writeToFile(f, 200);
  line l = f.getline();
  for (; l != NULL; ) {
    addrs.add(l);
    l = f.getline();
  }
  print(addrs.size(), addrs[0], addrs[1]);
  print(addrs.has(200));
}
`)
	want := "2 100 200\ntrue\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestStringsAndChars(t *testing.T) {
	out := runProgram(t, `
string s = "hello";
init {
  if (s == "hello") { print("eq"); }
  if (s != "world") { print("neq"); }
  char c = 'a';
  print(c);
  print("tab\tnl\n\"q\"");
}
`)
	want := "eq\nneq\n97\ntab\tnl\n\"q\"\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"div zero", "init { int z = 0; print(1 / z); }", "division by zero"},
		{"mod zero", "init { int z = 0; print(1 % z); }", "division by zero"},
		{"array oob read", "int a[2];\ninit { int i = 5; print(a[i]); }", "out of range"},
		{"array oob write", "int a[2];\ninit { int i = 5; a[i] = 1; }", "out of range"},
		{"runaway loop", "init { for (;;) { } }", "iterations"},
	}
	for _, c := range cases {
		_, err := tryRunProgram(c.src)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.wantSub)
		}
	}
}

func TestSnapshotCapturesByValue(t *testing.T) {
	globals := NewEnv(nil)
	globals.Define("g", value.IntVal(1))
	local := NewEnv(globals)
	local.Define("x", value.IntVal(10))
	inner := NewEnv(local)
	inner.Define("y", value.IntVal(20))

	snap := Snapshot(inner, globals)
	// Mutating originals after the snapshot must not affect captures.
	*local.Lookup("x") = value.IntVal(99)
	*inner.Lookup("y") = value.IntVal(99)
	if snap.Lookup("x").Int != 10 || snap.Lookup("y").Int != 20 {
		t.Errorf("snapshot = x:%d y:%d, want 10, 20", snap.Lookup("x").Int, snap.Lookup("y").Int)
	}
	// Globals stay shared.
	*globals.Lookup("g") = value.IntVal(7)
	if snap.Lookup("g").Int != 7 {
		t.Error("globals were copied, want shared")
	}
	// Containers are deep-copied.
	d := value.NewDict(false, value.IntVal(0))
	d.Set(value.IntVal(1), value.IntVal(2))
	local2 := NewEnv(globals)
	local2.Define("m", value.Value{Kind: value.KDict, Dict: d})
	snap2 := Snapshot(local2, globals)
	d.Set(value.IntVal(1), value.IntVal(42))
	if got := snap2.Lookup("m").Dict.Get(value.IntVal(1)).Int; got != 2 {
		t.Errorf("captured dict entry = %d, want 2", got)
	}
}

func TestDynamicAttrMaterialization(t *testing.T) {
	src := `
uint64 seen = 0;
inst I where (I.opcode == Load) {
  before I {
    seen = I.memaddr;
  }
}
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	in := New(info, nil, nil)
	globals := NewEnv(nil)
	for _, d := range info.Globals {
		if err := in.DeclareGlobal(globals, d); err != nil {
			t.Fatal(err)
		}
	}
	cmd := info.Commands[0]
	act := cmd.Body[0].(*ast.Action)
	env := NewEnv(globals)
	env.SetDyn(map[string]value.Value{"I.memaddr": value.UintVal(0xbeef)})
	if err := in.ExecStmts(env, act.Body); err != nil {
		t.Fatal(err)
	}
	if got := globals.Lookup("seen").Int; got != 0xbeef {
		t.Errorf("seen = %#x, want 0xbeef", got)
	}
	// Without materialization the access must fail loudly.
	env2 := NewEnv(globals)
	if err := in.ExecStmts(env2, act.Body); err == nil || !strings.Contains(err.Error(), "not materialized") {
		t.Errorf("err = %v, want not-materialized error", err)
	}
}

func TestStaticAttrs(t *testing.T) {
	inst := &isa.Inst{
		Addr: 0x100, Size: 13, Op: isa.Call,
		Ops: []isa.Operand{isa.ImmOp(0x500)},
	}
	ref := &value.CFERef{Kind: ast.Inst, Inst: inst}
	cases := []struct {
		attr string
		want int64
	}{
		{"addr", 0x100}, {"size", 13}, {"nextaddr", 0x10d}, {"numops", 1}, {"id", 0x100},
	}
	for _, c := range cases {
		v, err := StaticAttr(ref, c.attr)
		if err != nil {
			t.Fatalf("%s: %v", c.attr, err)
		}
		if v.AsInt() != c.want {
			t.Errorf("%s = %d, want %d", c.attr, v.AsInt(), c.want)
		}
	}
	if v, _ := StaticAttr(ref, "opcode"); v.Op != isa.Call {
		t.Errorf("opcode = %v", v.Op)
	}
	if v, _ := StaticAttr(ref, "op1"); v.Opnd.Kind != isa.KindImm {
		t.Errorf("op1 = %+v", v.Opnd)
	}
	if v, _ := StaticAttr(ref, "op3"); v.Opnd.Kind != isa.KindNone {
		t.Errorf("op3 = %+v", v.Opnd)
	}
	if _, err := StaticAttr(ref, "nothing"); err == nil {
		t.Error("bogus attr resolved")
	}
}

func TestZeroValues(t *testing.T) {
	if v := ZeroValue(types.Basic(types.Int)); v.Kind != value.KInt || v.Int != 0 {
		t.Errorf("zero int = %+v", v)
	}
	if v := ZeroValue(types.Basic(types.Bool)); v.Kind != value.KBool || v.Bool {
		t.Errorf("zero bool = %+v", v)
	}
	dt := &types.Type{Kind: types.Dict, Key: types.Basic(types.Addr), Elem: types.Basic(types.Addr)}
	dv := ZeroValue(dt)
	if dv.Dict == nil || dv.Dict.Ints == nil || dv.Dict.Get(value.Null).Kind != value.KInt {
		t.Errorf("zero dict = %+v", dv)
	}
	st := &types.Type{Kind: types.Dict, Key: types.Basic(types.String), Elem: types.Basic(types.Line)}
	if sv := ZeroValue(st); sv.Dict.StrVals == nil || sv.Dict.Get(value.Null).Kind != value.KString {
		t.Errorf("zero dict<string,line> = %+v", sv)
	}
}

// TestQuickArithmeticMatchesGo checks interpreter arithmetic against Go's
// semantics on random operands.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	prog, err := parser.Parse(`
int a = 0;
int b = 0;
init {
  print(a + b, a - b, a * b, a & b, a | b, a ^ b);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int64) bool {
		var buf bytes.Buffer
		in := New(info, &buf, nil)
		globals := NewEnv(nil)
		globals.Define("a", value.IntVal(a))
		globals.Define("b", value.IntVal(b))
		if err := in.ExecStmts(NewEnv(globals), info.Inits[0].Body); err != nil {
			return false
		}
		want := []int64{a + b, a - b, a * b, a & b, a | b, a ^ b}
		fields := strings.Fields(strings.TrimSpace(buf.String()))
		if len(fields) != len(want) {
			return false
		}
		for i, f := range fields {
			got := value.StrVal(f).AsInt()
			if got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
