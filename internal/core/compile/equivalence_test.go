package compile_test

// Observational-equivalence tests for the closure-compiled execution
// path: every case-study tool, on every backend, must behave identically
// with the compile layer ablated (the tree-walking reference) and under the
// compiled closures — same tool output, same cycle and instruction
// counts, and the same recorded runtime-error state.

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/obj"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// loadsTarget is a small executable with loads both straight-line and
// inside a loop, so counting tools and per-block actions all fire.
const loadsTarget = `
.module a.out
.executable
.entry main
.func main
  mov  r5, @buf
  load r4, [r5]
  mov  r2, 0
  mov  r3, 10
head:
  load r4, [r5+8]
  add  r2, r2, 1
  blt  r2, r3, head
  halt
.data
buf: .quad 1, 2
`

// equivTargets maps every case-study tool to the programs it runs
// against. Victim names come from workload.Victims; "src:" entries are
// inline assembly. Cases where a backend rejects the tool (loop coverage
// on Pin) or the tool reports errors (the *_bug victims) are included on
// purpose: failure state must match between the two execution paths too.
var equivTargets = map[string][]string{
	progs.InstCountBasic: {"src:loads", "loopy"},
	progs.InstCountBB:    {"src:loads", "loopy"},
	progs.OpcodeMix:      {"src:loads", "loopy"},
	progs.LoopCoverage:   {"loopy"},
	progs.UseAfterFree:   {"uaf_bug", "uaf_clean"},
	progs.ShadowStack:    {"stack_smash", "stack_clean"},
	progs.ForwardCFI:     {"indirect_attack", "indirect_clean"},
}

func buildTargetTB(tb testing.TB, target string) *cfg.Program {
	tb.Helper()
	var mods []*obj.Module
	if target == "src:loads" {
		m, err := asm.Assemble(loadsTarget)
		if err != nil {
			tb.Fatal(err)
		}
		mods = []*obj.Module{m}
	} else {
		m, err := workload.Victim(target)
		if err != nil {
			tb.Fatal(err)
		}
		mods = []*obj.Module{m}
	}
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// runMode runs a tool on a freshly built target under one backend and
// execution mode, returning everything observable about the run.
func runMode(t *testing.T, toolName, target, backendName string, ablate backend.Ablation) (string, *vm.Result, error) {
	t.Helper()
	tool, err := engine.Compile(progs.MustSource(toolName))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := backend.Run(tool, buildTargetTB(t, target), backendName, backend.Options{
		Out:    &out,
		Ablate: ablate,
	})
	return out.String(), res, err
}

func TestInterpCompiledEquivalence(t *testing.T) {
	for _, toolName := range progs.Names() {
		targets, ok := equivTargets[toolName]
		if !ok {
			t.Fatalf("tool %s has no equivalence targets; add it to equivTargets", toolName)
		}
		for _, target := range targets {
			for _, bk := range backend.Backends() {
				iOut, iRes, iErr := runMode(t, toolName, target, bk, backend.AblateCompile)
				cOut, cRes, cErr := runMode(t, toolName, target, bk, 0)
				name := toolName + "/" + target + "/" + bk
				if iOut != cOut {
					t.Errorf("%s: output diverged:\ninterp:   %q\ncompiled: %q", name, iOut, cOut)
				}
				if (iErr == nil) != (cErr == nil) {
					t.Errorf("%s: error state diverged: interp=%v compiled=%v", name, iErr, cErr)
					continue
				}
				if iErr != nil {
					if iErr.Error() != cErr.Error() {
						t.Errorf("%s: error text diverged:\ninterp:   %v\ncompiled: %v", name, iErr, cErr)
					}
					continue
				}
				if iRes.Cycles != cRes.Cycles {
					t.Errorf("%s: cycles diverged: interp=%d compiled=%d", name, iRes.Cycles, cRes.Cycles)
				}
				if iRes.Insts != cRes.Insts {
					t.Errorf("%s: instruction counts diverged: interp=%d compiled=%d", name, iRes.Insts, cRes.Insts)
				}
			}
		}
	}
}

// faultySrc divides by zero on the first load: both execution paths must
// record the same runtime error (message and position) on the Instance.
const faultySrc = `
uint64 n = 0;
inst I where (I.opcode == Load) {
  before I {
    n = n / (I.memaddr - I.memaddr);
  }
}
exit { print(n); }
`

func TestRuntimeErrorEquivalence(t *testing.T) {
	run := func(ablate backend.Ablation) (string, error) {
		tool, err := engine.Compile(faultySrc)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, err = backend.Run(tool, buildTargetTB(t, "src:loads"), backend.Pin, backend.Options{
			Out:    &out,
			Ablate: ablate,
		})
		return out.String(), err
	}
	iOut, iErr := run(backend.AblateCompile)
	cOut, cErr := run(0)
	if iErr == nil || cErr == nil {
		t.Fatalf("both modes must fail: interp=%v compiled=%v", iErr, cErr)
	}
	if iErr.Error() != cErr.Error() {
		t.Errorf("error text diverged:\ninterp:   %v\ncompiled: %v", iErr, cErr)
	}
	if iOut != cOut {
		t.Errorf("output diverged: interp=%q compiled=%q", iOut, cOut)
	}
}

// keyConvSrc indexes dicts with a line and with NULL from compiled
// actions: every access converts its key to the declared key type, so
// d[l] and d[16] bump one entry and s[eof] and s[NULL] address "".
const keyConvSrc = `
file f("keys.txt");
dict<int,int> d;
dict<string,int> s;
line l;
line eof;
init {
  writeToFile(f, 16);
  l = f.getline();
  eof = f.getline();
}
inst I where (I.opcode == Load) {
  before I {
    d[l] = d[l] + 1;
    s[eof] = s[NULL] + 1;
  }
  after I {
    d[16] = d[16] + 1;
  }
}
exit {
  print(d.size(), d[16], d.has(l));
  print(s.size(), s[""]);
}
`

func TestDictKeyConversionEquivalence(t *testing.T) {
	// loadsTarget runs 11 loads.
	const want = "1 22 true\n1 11\n"
	for _, bk := range backend.Backends() {
		for _, ablate := range []backend.Ablation{backend.AblateCompile, 0} {
			tool, err := engine.Compile(keyConvSrc)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := backend.Run(tool, buildTargetTB(t, "src:loads"), bk, backend.Options{
				Out:    &out,
				Ablate: ablate,
			}); err != nil {
				t.Fatalf("%s ablate=%q: %v", bk, ablate, err)
			}
			if out.String() != want {
				t.Errorf("%s ablate=%q: output = %q, want %q", bk, ablate, out.String(), want)
			}
		}
	}
}
