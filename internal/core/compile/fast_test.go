package compile_test

// The whole-body fast tier against the generic lowering, statement by
// statement: each case is one action body, fired on separately declared
// globals through Bound.Exec, through FastExec, and — as the reference
// both lowerings answer to — through the tree-walking interpreter. All
// three must leave equal cells, print the same output and record the
// same runtime error (message and position).

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core/ast"
	"repro/internal/core/compile"
	"repro/internal/core/interp"
	"repro/internal/core/parser"
	"repro/internal/core/sem"
	"repro/internal/core/value"
)

// fastCase is a tool whose first action is fired directly.
type fastCase struct {
	name, globals, body string
	// wantOut, when set, is the output every path must print.
	wantOut string
	// wantErr is the expected error text after the last firing ("" for
	// none), which pins the position every path must report.
	wantErr string
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
}

// Execution paths of one case.
const (
	viaInterp = iota
	viaGeneric
	viaFast
)

// fire runs the case's action twice on freshly declared globals through
// one execution path.
func (fc fastCase) fire(t *testing.T, via int) (map[string]value.Value, string, error) {
	t.Helper()
	src := fc.globals + `
inst I where (I.opcode == Load) {
  before I {` + fc.body + `
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
	cp, err := compile.Compile(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := interp.New(info, &out, nil)
	globals := interp.NewEnv(nil)
	for _, d := range info.Globals {
		if err := in.DeclareGlobal(globals, d); err != nil {
			t.Fatal(err)
		}
	}
	act := info.Commands[0].Body[0].(*ast.Action)
	b, err := cp.Actions[act].Bind(func(ref compile.CellRef) (*value.Value, error) {
		return globals.Lookup(ref.Name), nil
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	exec := func([]value.Value) error { return in.ExecStmts(interp.NewEnv(globals), act.Body) }
	switch via {
	case viaGeneric:
		exec = b.Exec
	case viaFast:
		if exec = b.FastExec(); exec == nil {
			t.Fatal("body has no fast lowering")
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		err = exec(nil)
	}
	cells := make(map[string]value.Value)
	for _, d := range info.Globals {
		cells[d.Name] = *globals.Lookup(d.Name)
	}
	return cells, out.String(), err
}

func TestFastTierMatchesGeneric(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, fc := range fastCases {
		t.Run(fc.name, func(t *testing.T) {
			iCells, iOut, iErr := fc.fire(t, viaInterp)
			if fc.wantOut != "" && iOut != fc.wantOut {
				t.Errorf("interpreter output = %q, want %q", iOut, fc.wantOut)
			}
			if errText(iErr) != fc.wantErr {
				t.Errorf("interpreter error = %q, want %q", errText(iErr), fc.wantErr)
			}
			for _, via := range []int{viaGeneric, viaFast} {
				name := map[int]string{viaGeneric: "generic", viaFast: "fast"}[via]
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
