package compile_test

// The compiled executor against the tree-walking interpreter, statement
// by statement: each case is one action body, fired on separately
// declared globals through Bound.Exec and, as the reference, through the
// interpreter. Both must leave equal cells, print the same output and
// record the same runtime error (message and position). An additive body
// is also flushed through Bound.CounterShape. The action's CFE variable I
// is bound to a fixed instruction, so static attributes resolve.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/compile"
	"repro/internal/core/interp"
	"repro/internal/core/parser"
	"repro/internal/core/placement"
	"repro/internal/core/sem"
	"repro/internal/core/value"
	"repro/internal/isa"
)

// fastCase is a tool whose first action is fired directly.
type fastCase struct {
	name, globals, body string
	// wantOut, when set, is the output every path must print.
	wantOut string
	// wantErr is the expected error text after the last firing ("" for
	// none), which pins the position every path must report.
	wantErr string
	// file holds the lines of the tool file "in.txt".
	file []string
	// counter marks an additive body, which is also flushed.
	counter bool
	// fastOnly skips the interpreter, which would take seconds to count
	// to interp.MaxLoopIters; wantErr pins the result instead.
	fastOnly bool
	// compileErr, when set, is the error sem.Check must reject the tool
	// with; nothing is fired.
	compileErr string
}

var fastCases = []fastCase{
	{
		name:    "missing key reads 0 and equals NULL",
		globals: "dict<int,int> d; int c; int x;",
		body: `
    x = x + d[5];
    if (d[7] == NULL) { c = c + 1; }
    if (d[5] == NULL) { c = c + 10; }
    if (d[5] != NULL) { c = c + 100; }
    d[5] = d[5] + 2;`,
	},
	{
		name:    "every comparison and arithmetic operator",
		globals: "int c; int x;",
		body: `
    int a = c - 1;
    int b = 1;
    if (a == b) { c = c + 1; }
    if (a != b) { c = c + 2; }
    if (a < b) { c = c + 4; }
    if (a <= b) { c = c + 8; }
    if (a > b) { c = c + 16; }
    if (a >= b) { c = c + 32; }
    x = x + (a + b) * (a - b) + (a & 6) + (a | 1) + (a ^ 3) + (a << 2) + (a >> 1) + a / 3 + a % 3;`,
	},
	{
		name:    "has and size on typed dicts",
		globals: "dict<int,int> d; dict<addr,uint64> e; int c;",
		body: `
    if (d.has(3)) { c = c + d.size(); } else { d[3] = 1; }
    if (!e.has(d.size()) || e.has(0)) { e[d.size()] = e.size() + 7; }
    c = c + e[1] * 10;`,
	},
	{
		name:    "boxed dict aliased by a numeric-element variable",
		globals: "dict<int,line> e; dict<int,int> d = e; int c;",
		body: `
    d[1] = d[1] + 5;
    if (d.has(1)) { c = c + d[1] + d.size(); }`,
		compileErr: "cinnamon: 1:19: cannot initialize d (dict<int,int>) with dict<int,line>",
	},
	{
		name:    "nested loops shadow and reuse an int local",
		globals: "int c;",
		body: `
    for (int i = 0; i < 3; i = i + 1) {
      int j;
      j = j + i;
      for (int i = 0; i < 2; i = i + 1) {
        int k = i * 10;
        j = j + k;
      }
      c = c + j * 100 + i;
    }
    print(c);`,
		wantOut: "3303\n6606\n",
	},
	{
		name:    "print of locals",
		globals: "int c; vector<int> v; dict<int,int> d;",
		body: `
    int x = 5;
    int y = x * 3 - c;
    c = c + 1;
    print(x, y, c, "end", NULL);
    print(d[x], v[y]);`,
		wantOut: "5 15 1 end NULL\n0 NULL\n5 14 2 end NULL\n0 NULL\n",
	},
	{
		name:    "division by zero",
		globals: "int c;",
		body: `
    c = c + 1;
    int z = c - c;
    c = c / z;`,
		wantErr: "cinnamon: 6:11: division by zero",
	},
	{
		name:    "array index out of range",
		globals: "int a[4]; int c;",
		body: `
    int i = 3;
    a[i] = a[i] + 1;
    c = a[i + 1];`,
		wantErr: "cinnamon: 6:10: array index 4 out of range [0,4)",
	},
	{
		name:    "static attributes as operands and dict keys",
		globals: "dict<int,int> d; int c; vector<addr> v;",
		body: `
    addr n = I.nextaddr;
    d[I.addr] = d[I.addr] + I.size;
    d[I.size] = I.numops;
    c = c + n - I.addr + d[I.addr];
    if (I.size > 2 && !v.has(I.nextaddr)) { v.add(I.nextaddr); }
    print(I.nextaddr, I.id, v[0]);`,
		wantOut: "16405 16400 16405\n16405 16400 16405\n",
	},
	{
		name:    "static attributes as counter addends",
		globals: "int c; uint64 x = 7;",
		body: `
    c = c + I.size;
    x = x - I.nextaddr;
    c = I.numops + c;`,
		counter: true,
	},
	{
		name:    "has and add on numeric vectors with NULL and line arguments",
		globals: `vector<int> v; vector<addr> w; file in("in.txt"); line l = in.getline(); line e = in.getline(); line none = in.getline(); int c;`,
		file:    []string{"0x10", ""},
		body: `
    if (!v.has(l)) { v.add(l); }
    if (!w.has(NULL)) { w.add(NULL); }
    if (w.has(0)) { c = c + 1; }
    if (v.has(16)) { c = c + 10; }
    if (v.has(e) || v.has(none)) { c = c + 100; }
    v.add(e);
    w.add(c);
    if (w.has(c) && v.has(0)) { c = c + 1000; }
    print(v.size(), w.size(), c);`,
		wantOut: "2 2 1011\n3 3 2122\n",
	},
	{
		name:    "dict bump with register, literal and bound-constant keys",
		globals: "dict<int,int> d; dict<addr,uint64> e; int c;",
		body: `
    int k = c % 3;
    d[k] = d[k] + 2;
    d[7] = d[7] - 1;
    d[I.size] = d[I.size] + d[I.size] * 2 + 1;
    d[c] = d[c] + c;
    e[I.addr] = e[I.addr] - d[k];
    c = c + 1;`,
	},
	{
		name:    "dict bump on a boxed dict",
		globals: "dict<int,line> b; dict<int,int> d = b; int c;",
		body: `
    d[c] = d[c] + 5;
    d[c] = d[c] - 1;
    c = c + d[0];`,
		compileErr: "cinnamon: 1:19: cannot initialize d (dict<int,int>) with dict<int,line>",
	},
	{
		name:    "dict bump whose addend fails leaves the dict alone",
		globals: "dict<int,int> d; int c;",
		body: `
    d[1] = d[1] + 1;
    d[1] = d[1] + 1 / c;`,
		wantErr: "cinnamon: 5:21: division by zero",
	},
	{
		name:    "counted loop whose body grows the vector",
		globals: "vector<int> v; int c;",
		body: `
    v.add(1);
    for (int i = 0; i < v.size(); i = i + 1) {
      if (v.size() < 6) { v.add(i * 2); }
      c = c + v[i] * 10 + i;
    }
    print(c, v.size());`,
		wantOut: "225 6\n466 7\n",
	},
	{
		name:    "loop whose body assigns its counter stays plain",
		globals: "vector<int> v; int c;",
		body: `
    v.add(c + 1);
    v.add(c + 10);
    for (int i = 0; i < v.size(); i = i + 1) {
      c = c + v[i];
      i = i + 1;
    }
    print(c);`,
		wantOut: "1\n4\n",
	},
	{
		name:    "counted loop over a dict nested in a loop that shadows its counter",
		globals: "dict<int,int> d; int c;",
		body: `
    d[c] = 1;
    d[c + 7] = 2;
    for (int i = 0; i < d.size(); i = i + 1) {
      int j = i;
      for (int i = j; i < d.size(); i = i + 1) { c = c + i; }
    }
    print(c);`,
		wantOut: "2\n22\n",
	},
	{
		name:    "string print and string-keyed bump beside numeric work",
		globals: "dict<string,int> calls; dict<int,int> d; int c; vector<addr> v;",
		body: `
    c = c + I.size;
    calls[I.trgname] = calls[I.trgname] + 1;
    d[I.addr] = d[I.addr] + c;
    if (!v.has(I.nextaddr)) { v.add(I.nextaddr); }
    print("at", I.addr, I.opcode, I.trgname, calls[""], calls.size(), d[I.addr], v[c]);`,
		wantOut: "at 16400 load  1 1 5 NULL\nat 16400 load  2 1 15 NULL\n",
	},
	{
		name:    "counted loop exceeding MaxLoopIters",
		globals: "vector<int> v; int c;",
		body: `
    v.add(1);
    for (int i = -50000001; i < v.size(); i = i + 1) {
    }
    c = c + 1;`,
		wantErr:  "cinnamon: 5:5: for statement exceeded 50000000 iterations",
		fastOnly: true,
	},
}

// Execution paths of one case.
const (
	viaInterp = iota
	viaCompiled
	viaCounter
)

// caseInst is the instruction the action's I is bound to: at 0x4010,
// 5 bytes long, with two operands.
var caseInst = &isa.Inst{Addr: 0x4010, Size: 5, Op: isa.Load, Ops: make([]isa.Operand, 2)}

// source is the case's tool.
func (fc fastCase) source() string {
	return fc.globals + `
inst I where (I.opcode == Load) {
  before I {` + fc.body + `
  }
}
`
}

// check parses and checks the case's tool.
func (fc fastCase) check(t *testing.T) (*ast.Program, *sem.Info, error) {
	t.Helper()
	prog, err := parser.Parse(fc.source())
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	return prog, info, err
}

// fire runs the case's action twice on freshly declared globals through
// one execution path.
func (fc fastCase) fire(t *testing.T, via int) (map[string]value.Value, string, error) {
	t.Helper()
	prog, info, err := fc.check(t)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compile.Compile(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fs := interp.NewFS()
	fs.Open("in.txt").Lines = fc.file
	in := interp.New(info, &out, fs)
	globals := interp.NewEnv(nil)
	globals.Define("I", value.Value{Kind: value.KCFE, CFE: &value.CFERef{Kind: ast.Inst, Inst: caseInst, Prog: &cfg.Program{}}})
	for _, d := range info.Globals {
		if err := in.DeclareGlobal(globals, d); err != nil {
			t.Fatal(err)
		}
	}
	act := info.Commands[0].Body[0].(*ast.Action)
	body := cp.Actions[act]
	slots := make([]*value.Value, len(body.Cells))
	for i, c := range body.Cells {
		slots[i] = globals.Lookup(c.Name)
	}
	b := body.Bind(slots, &out)
	if _, counter := b.CounterShape(); body.Additive(values(slots)) != counter || counter != fc.counter {
		t.Errorf("Additive = %v, bound body counter = %v, want %v", body.Additive(values(slots)), counter, fc.counter)
	}
	exec := func([]value.Value) error { return in.ExecStmts(interp.NewEnv(globals), act.Body) }
	switch via {
	case viaCompiled:
		exec = b.Exec
	case viaCounter:
		flush, ok := b.CounterShape()
		if !ok {
			t.Fatal("body is not additive")
		}
		exec = func([]value.Value) error {
			flush(1)
			return nil
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		err = exec(nil)
	}
	cells := make(map[string]value.Value)
	for _, d := range info.Globals {
		if v := *globals.Lookup(d.Name); v.Kind != value.KFile {
			cells[d.Name] = v
		}
	}
	return cells, out.String(), err
}

// values reads bound cells as the recorded values Additive takes.
func values(cells []*value.Value) []value.Value {
	vals := make([]value.Value, len(cells))
	for i, v := range cells {
		vals[i] = *v
	}
	return vals
}

// TestFastTierMatchesGeneric fires every fastCases entry through the one
// compiled executor and, when additive, its counter flush, against the
// generic tree-walking interpreter.
func TestFastTierMatchesGeneric(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, fc := range fastCases {
		t.Run(fc.name, func(t *testing.T) {
			if fc.compileErr != "" {
				if _, _, err := fc.check(t); errText(err) != fc.compileErr {
					t.Errorf("compile error = %q, want %q", errText(err), fc.compileErr)
				}
				return
			}
			if fc.fastOnly {
				if _, _, err := fc.fire(t, viaCompiled); errText(err) != fc.wantErr {
					t.Errorf("compiled error = %q, want %q", errText(err), fc.wantErr)
				}
				return
			}
			iCells, iOut, iErr := fc.fire(t, viaInterp)
			if fc.wantOut != "" && iOut != fc.wantOut {
				t.Errorf("interpreter output = %q, want %q", iOut, fc.wantOut)
			}
			if errText(iErr) != fc.wantErr {
				t.Errorf("interpreter error = %q, want %q", errText(iErr), fc.wantErr)
			}
			vias := []int{viaCompiled}
			if fc.counter {
				vias = append(vias, viaCounter)
			}
			for _, via := range vias {
				name := map[int]string{viaCompiled: "compiled", viaCounter: "counter"}[via]
				cells, out, err := fc.fire(t, via)
				if !reflect.DeepEqual(cells, iCells) {
					t.Errorf("%s cells diverged:\ngot:  %+v\nwant: %+v", name, cells, iCells)
				}
				if out != iOut {
					t.Errorf("%s output diverged:\ngot:  %q\nwant: %q", name, out, iOut)
				}
				if errText(err) != errText(iErr) {
					t.Errorf("%s error = %q, want %q", name, errText(err), errText(iErr))
				}
			}
		})
	}
}

// TestFastCasesPlacedOnFastTier places every fastCases tool: each
// compiled action, whatever its statements, records MechFast, and an
// additive one MechCounter.
func TestFastCasesPlacedOnFastTier(t *testing.T) {
	prog := buildTargetTB(t, "src:loads")
	for _, fc := range fastCases {
		if fc.compileErr != "" {
			continue
		}
		want := placement.MechFast
		if fc.counter {
			want = placement.MechCounter
		}
		pl, _ := place(t, fc.source(), prog, false)
		for _, r := range pl.rules {
			if r.Mechanism != want {
				t.Errorf("%s: %q at %#x dispatches mech=%s, want %s", fc.name, r.Action.Label, r.SiteAddr(), r.Mechanism, want)
			}
		}
	}
}

// TestUnresolvedBindConstantReportsError binds I to a basic block, whose
// attributes do not include nextaddr: the placement loses only its
// counter flush, and the one executor reports the failed lookup when the
// constant is read.
func TestUnresolvedBindConstantReportsError(t *testing.T) {
	src := `
int c;
inst I where (I.opcode == Load) {
  before I { c = c + I.nextaddr; }
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
	cp, err := compile.Compile(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	block := value.Value{Kind: value.KCFE, CFE: &value.CFERef{Kind: ast.BasicBlock, Block: &cfg.Block{}}}
	c := value.IntVal(0)
	act := info.Commands[0].Body[0].(*ast.Action)
	body := cp.Actions[act]
	cells := make([]*value.Value, len(body.Cells))
	for i, ref := range body.Cells {
		cells[i] = &c
		if ref.Name == "I" {
			cells[i] = &block
		}
	}
	b := body.Bind(cells, &bytes.Buffer{})
	if body.Additive(values(cells)) {
		t.Error("Additive is set for a placement whose constant does not resolve")
	}
	if _, ok := b.CounterShape(); ok {
		t.Error("CounterShape is set for a placement whose constant did not resolve")
	}
	const want = `cinnamon: basicblock@0x0 has no static attribute "nextaddr"`
	if err := b.Exec(nil); err == nil || err.Error() != want {
		t.Errorf("Exec error = %v, want %q", err, want)
	}
}
