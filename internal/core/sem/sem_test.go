package sem

import (
	"strings"
	"testing"

	"repro/internal/core/ast"
	"repro/internal/core/parser"
	"repro/internal/core/types"
	"repro/internal/progs"
)

func check(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("Check succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestCheckAllCaseStudies(t *testing.T) {
	for _, name := range progs.Names() {
		prog, err := parser.Parse(progs.MustSource(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Check(prog); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestActionInfoForUAF(t *testing.T) {
	info := check(t, progs.MustSource(progs.UseAfterFree))
	if len(info.Commands) != 3 || len(info.Globals) != 3 {
		t.Fatalf("commands=%d globals=%d", len(info.Commands), len(info.Globals))
	}
	// First command (malloc) has two actions: before uses arg1, after
	// uses rtnval.
	var acts []*ast.Action
	for _, item := range info.Commands[0].Body {
		if a, ok := item.(*ast.Action); ok {
			acts = append(acts, a)
		}
	}
	if len(acts) != 2 {
		t.Fatalf("actions = %d", len(acts))
	}
	before := info.Actions[acts[0]]
	if before.Canonical != ast.Before || len(before.DynAttrs) != 1 || before.DynAttrs[0] != (DynAttr{Var: "I", Attr: "arg1"}) {
		t.Errorf("before info = %+v", before)
	}
	after := info.Actions[acts[1]]
	if after.Canonical != ast.After || len(after.DynAttrs) != 1 || after.DynAttrs[0] != (DynAttr{Var: "I", Attr: "rtnval"}) {
		t.Errorf("after info = %+v", after)
	}
	if after.Simple {
		t.Error("after action (with loop) should not be simple")
	}
	if after.Cost != 6*StmtCost {
		t.Errorf("after cost = %d, want %d", after.Cost, 6*StmtCost)
	}
	// Third command's before action uses memaddr.
	var memAct *ast.Action
	for _, item := range info.Commands[2].Body {
		if a, ok := item.(*ast.Action); ok {
			memAct = a
		}
	}
	mi := info.Actions[memAct]
	if len(mi.DynAttrs) != 1 || mi.DynAttrs[0].Attr != "memaddr" {
		t.Errorf("mem action dyn attrs = %+v", mi.DynAttrs)
	}
}

func TestBBCountActionIsSimpleWithStaticWhere(t *testing.T) {
	info := check(t, progs.MustSource(progs.InstCountBB))
	for a, ai := range info.Actions {
		if ai.TargetEType != ast.BasicBlock {
			continue
		}
		if !ai.Simple {
			t.Error("bb-count action should be simple (inlinable)")
		}
		if ai.WhereDynamic {
			t.Error("local_inst_count constraint should be static")
		}
		if ai.Canonical != ast.Entry {
			t.Errorf("before B should canonicalize to entry, got %v", ai.Canonical)
		}
		if a.Where == nil {
			t.Error("where missing")
		}
		if len(ai.DynAttrs) != 0 {
			t.Errorf("dyn attrs = %v", ai.DynAttrs)
		}
	}
}

func TestCaseInsensitiveAttributes(t *testing.T) {
	check(t, `
file outfile("x.txt");
func F {
  writeToFile(outfile, F.startAddr);
}
`)
	// Both spellings must resolve.
	check(t, `
uint64 a = 0;
func F {
  entry F { a = F.startaddr; }
}
`)
}

func TestAttrTable(t *testing.T) {
	a, ok := LookupAttr(ast.Inst, "MemAddr")
	if !ok || !a.Dynamic || a.Type.Kind != types.Addr {
		t.Errorf("memaddr = %+v, %v", a, ok)
	}
	if _, ok := LookupAttr(ast.Inst, "bogus"); ok {
		t.Error("bogus attr resolved")
	}
	r, ok := LookupAttr(ast.Inst, "rtnval")
	if !ok || !r.AfterOnly {
		t.Errorf("rtnval = %+v", r)
	}
	if len(Attrs(ast.Loop)) == 0 {
		t.Error("loop attrs empty")
	}
	if DescribeDynAttr(DynAttr{Var: "I", Attr: "memaddr"}) != "I.memaddr" {
		t.Error("DescribeDynAttr wrong")
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined var", `inst I { before I { x = 1; } }`, "undefined: x"},
		{"dup global", "int x = 0;\nint x = 1;", "redeclared"},
		{"bad nesting", `inst I { basicblock B { } }`, "strictly finer"},
		{"same-level nesting", `inst I { inst J { } }`, "strictly finer"},
		{"dynamic in analysis", `uint64 a = 0; inst I { a = I.memaddr; }`, "only available inside actions"},
		{"dynamic in command where", `inst I where (I.memaddr > 0) { }`, "only available inside actions"},
		{"dynamic in init", `init { print(1); } inst I { before I { print(I.memaddr); } }`, ""},
		{"rtnval in before", `inst I { before I { print(I.rtnval); } }`, "after-actions"},
		{"dynamic of other element", `uint64 n = 0; loop L { inst I where (I.opcode == Call) { iter L { n = n + I.arg1; } } }`, "only available in actions on its own element"},
		{"bad attr", `inst I { before I { print(I.frobnicate); } }`, "no attribute"},
		{"iter on inst", `inst I { iter I { } }`, "invalid for instructions"},
		{"iter on bb", `basicblock B { iter B { } }`, "invalid for basicblock"},
		{"action on module", `module M { entry M { } }`, "cannot target modules"},
		{"unknown action target", `inst I { before J { } }`, "not a control-flow element"},
		{"assign to attr", `inst I { before I { I.addr = 1; } }`, "read-only"},
		{"assign to cfe", `inst I { before I { I = 1; } }`, "cannot assign to control-flow element"},
		{"bad where type", `inst I where (I.addr) { }`, "must be bool"},
		{"bool op on int", `int x = 1 && 2;`, "invalid operation"},
		{"compare opcode int", `bool b = Load == 3;`, "invalid operation"},
		{"order strings", `bool b = "a" < 1;`, "invalid operation"},
		{"bad unary", `bool b = !3;`, "requires bool"},
		{"neg string", `int x = -"a";`, "requires a number"},
		{"unknown function", `init { frob(1); }`, "unknown function"},
		{"print no args", `init { print(); }`, "at least one argument"},
		{"writeToFile bad file", `init { writeToFile(1, 2); }`, "must be a file"},
		{"vector bad method", `vector<int> v; init { v.frob(1); }`, "no method"},
		{"vector add arity", `vector<int> v; init { v.add(); }`, "requires one"},
		{"dict bad key", `dict<int,int> d; init { d["x"] = 1; }`, "dict key must be int"},
		{"index non-container", `int x; init { x[0] = 1; }`, "not indexable"},
		{"istype non-operand", `inst I where (I.addr IsType mem) { }`, "requires an instruction operand"},
		{"file local", `inst I { file f("x"); }`, "global scope"},
		{"file no args", `file f;`, "requires a name argument"},
		{"file bad arg", `file f(3);`, "must be a string"},
		{"int ctor args", `int x(3);`, "no constructor arguments"},
		{"dict of files", `dict<int,file> d;`, "invalid dict value"},
		{"dict key file", `dict<file,int> d;`, "invalid dict key"},
		{"assign mismatched", `vector<int> v; init { v = 3; }`, "cannot assign"},
		{"vector from line vector", `vector<line> ls; vector<int> v; init { v = ls; }`, "cannot assign vector<line> to vector<int>"},
		{"dict from line dict", `dict<int,line> e; dict<int,int> d = e;`, "cannot initialize d (dict<int,int>) with dict<int,line>"},
		{"if cond type", `init { if (1) { } }`, "must be bool"},
		{"for cond type", `init { for (int i = 0; i; ) { } }`, "must be bool"},
		{"call attr", `inst I { before I { I.addr(); } }`, "cannot be called"},
		{"attr on non-cfe", `int x; init { print(x.addr); }`, "no attributes"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if c.name == "dynamic in init" {
				// Positive control: dynamic attr in an action is fine.
				check(t, c.src)
				return
			}
			checkErr(t, c.src, c.wantSub)
		})
	}
}

func TestWhereDynamicClassification(t *testing.T) {
	info := check(t, `
inst I where (I.opcode == Load) {
  before I where (I.memaddr > 4096) {
    print(I.memaddr);
  }
}
`)
	for _, ai := range info.Actions {
		if !ai.WhereDynamic {
			t.Error("dynamic constraint not classified as dynamic")
		}
		if len(ai.DynAttrs) != 1 {
			t.Errorf("dyn attrs = %v (should deduplicate)", ai.DynAttrs)
		}
	}
}

func TestShadowingInNestedScopes(t *testing.T) {
	check(t, `
int x = 1;
inst I {
  before I {
    int x = 2;
    if (x > 1) {
      int x = 3;
      print(x);
    }
  }
}
`)
	checkErr(t, `init { int y = 1; int y = 2; }`, "redeclared")
}

// TestNumericContainersInterassign pins that containers whose key and
// element types are all numeric share one layout and may be assigned to
// one another.
func TestNumericContainersInterassign(t *testing.T) {
	check(t, `dict<int,int> a; dict<addr,uint64> b = a; vector<char> v; vector<addr> w; init { b = a; w = v; }`)
}

func TestLineCoercions(t *testing.T) {
	check(t, `
vector<addr> vtable;
file f("x.txt");
init {
  line l = f.getline();
  for (; l != NULL; ) {
    vtable.add(l);
    l = f.getline();
  }
  addr a = l;
}
`)
}

func TestAddrArithmeticKeepsAddr(t *testing.T) {
	info := check(t, `
inst I {
  before I {
    addr a = I.addr + 8;
    print(a);
  }
}
`)
	found := false
	for e, ty := range info.Types {
		if be, ok := e.(*ast.BinaryExpr); ok && be != nil && ty.Kind == types.Addr {
			found = true
		}
	}
	if !found {
		t.Error("addr + int did not stay addr")
	}
}
