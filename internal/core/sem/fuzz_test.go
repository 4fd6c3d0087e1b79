package sem_test

import (
	"testing"

	"repro/internal/core/parser"
	"repro/internal/core/sem"
	"repro/internal/progs"
)

// FuzzSem drives the whole front end: any input that parses must then
// either check cleanly or fail with a positioned *sem.Error — semantic
// analysis may reject, never panic. Seeded with the case studies and
// with inputs aimed at the trickier rules (nesting, attribute scoping,
// dynamic attributes outside actions, container typing).
func FuzzSem(f *testing.F) {
	for _, name := range progs.Names() {
		f.Add(progs.MustSource(name))
	}
	for _, s := range []string{
		"inst I { func F { } }",                             // upward nesting
		"uint64 n = 0; init { n = I.addr; }",                // CFE attr outside command
		"inst I { n = I.memaddr; }",                         // dynamic attr in analysis code
		"inst I { after I { x = I.rtnval; } }",              // rtnval is after-only
		"loop L { iter L { } } basicblock B { iter B { } }", // iter off loops
		"dict<int,int> d; exit { d = 1; }",                  // container assignment
		"int a[4]; exit { a[9] = 1; }",                      // array indexing
		"file f(\"x\"); exit { print(f.getline()); }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		info, err := sem.Check(prog)
		if err == nil && info == nil {
			t.Fatal("nil info and nil error")
		}
	})
}
