package backend

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/engine"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

func loadSrc(t *testing.T, srcs ...string) *cfg.Program {
	t.Helper()
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	return loadMods(t, mods)
}

func loadMods(t *testing.T, mods []*obj.Module) *cfg.Program {
	t.Helper()
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func loadVictim(t *testing.T, name string) *cfg.Program {
	t.Helper()
	m, err := workload.Victim(name)
	if err != nil {
		t.Fatal(err)
	}
	return loadMods(t, []*obj.Module{m})
}

func compile(t *testing.T, name string) *engine.CompiledTool {
	t.Helper()
	tool, err := engine.Compile(progs.MustSource(name))
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

// caseStudyVictim loads the victim each case study is exercised on.
func caseStudyVictim(t *testing.T, name string) *cfg.Program {
	t.Helper()
	victim, ok := map[string]string{
		progs.InstCountBasic: "loopy",
		progs.InstCountBB:    "loopy",
		progs.OpcodeMix:      "loopy",
		progs.LoopCoverage:   "loopy",
		progs.UseAfterFree:   "uaf_bug",
		progs.ShadowStack:    "stack_smash",
		progs.ForwardCFI:     "indirect_attack",
	}[name]
	if !ok {
		t.Fatalf("no victim for case study %s", name)
	}
	return loadVictim(t, victim)
}

// placerFor opens the named backend on prog as Run would, or returns
// nil when the backend refuses the binary.
func placerFor(b string, prog *cfg.Program, opts Options) engine.Placer {
	switch b {
	case Pin:
		return newPinPlacer(prog, opts)
	case Dyninst:
		be, err := dyninst.OpenBinary(prog, opts.vmConfig())
		if err != nil {
			return nil
		}
		return &dyninstPlacer{be: be, prog: prog}
	case Janus:
		return &janusPlacer{prog: prog}
	}
	return nil
}

// runTool runs a case-study tool on a program under a backend and
// returns the tool output.
func runTool(t *testing.T, toolName string, prog *cfg.Program, backendName string) (string, *vm.Result) {
	t.Helper()
	var out bytes.Buffer
	res, err := Run(compile(t, toolName), prog, backendName, Options{Out: &out})
	if err != nil {
		t.Fatalf("%s on %s: %v", toolName, backendName, err)
	}
	return out.String(), res
}

const loadsSrc = `
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

// Prepare builds the instrumentation without running it, so no adaptive
// controller attaches: the OnMachine hook stays out even where the
// framework builds its machine up front (Pin), while Run calls it once.
func TestPrepareLeavesOnMachineOut(t *testing.T) {
	tool := compile(t, "instcount_basic")
	prog := loadVictim(t, "loopy")
	for _, b := range Backends() {
		calls := 0
		opts := Options{Out: new(bytes.Buffer), OnMachine: func(*vm.VM) { calls++ }}
		if err := Prepare(tool, prog, b, opts); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if calls != 0 {
			t.Errorf("%s: Prepare called OnMachine %d times", b, calls)
		}
		if _, err := Run(tool, prog, b, opts); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if calls != 1 {
			t.Errorf("%s: Prepare+Run called OnMachine %d times, want 1", b, calls)
		}
	}
}

func TestInstCountConsistencyAcrossBackends(t *testing.T) {
	// Figure 12's headline property: the same Cinnamon program reports
	// the same counts on every backend (absent shared libraries).
	for _, toolName := range []string{progs.InstCountBasic, progs.InstCountBB} {
		for _, b := range Backends() {
			prog := loadSrc(t, loadsSrc)
			out, _ := runTool(t, toolName, prog, b)
			if out != "11\n" {
				t.Errorf("%s on %s: output %q, want 11", toolName, b, out)
			}
		}
	}
}

func TestPinSeesSharedLibraries(t *testing.T) {
	lib := `
.module libshared
.global libfn
.func libfn
  mov  r12, @lbuf
  load r13, [r12]
  load r13, [r12+8]
  ret
.data
lbuf: .quad 5, 6
`
	main := `
.module a.out
.executable
.entry main
.extern libfn
.func main
  mov  r5, @buf
  load r4, [r5]
  call libfn
  call libfn
  halt
.data
buf: .quad 1
`
	counts := map[string]string{}
	for _, b := range Backends() {
		prog := loadSrc(t, main, lib)
		out, _ := runTool(t, progs.InstCountBasic, prog, b)
		counts[b] = strings.TrimSpace(out)
	}
	// Pin (dynamic) sees the 4 shared-library loads; the static-analysis
	// backends only instrument the executable.
	if counts[Pin] != "5" {
		t.Errorf("pin count = %s, want 5", counts[Pin])
	}
	if counts[Janus] != "1" || counts[Dyninst] != "1" {
		t.Errorf("static counts = janus:%s dyninst:%s, want 1", counts[Janus], counts[Dyninst])
	}
}

func TestLoopCoverage(t *testing.T) {
	for _, b := range []string{Janus, Dyninst} {
		prog := loadVictim(t, "loopy")
		out, _ := runTool(t, progs.LoopCoverage, prog, b)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		// Two loops: id, coverage%, id, coverage%.
		if len(lines) != 4 {
			t.Fatalf("%s: output = %q", b, out)
		}
		hot := lines[1]
		cold := lines[3]
		// The hot loop runs 200 iterations of 1 block; the cold one 3.
		// Coverage percentages must reflect that dominance.
		if hot < "90" || len(hot) < 2 {
			t.Errorf("%s: hot loop coverage = %s%%, want >=90", b, hot)
		}
		if len(cold) > 2 {
			t.Errorf("%s: cold loop coverage = %s%%, want small", b, cold)
		}
	}
}

func TestLoopCoverageRejectedByPin(t *testing.T) {
	// The paper: "the loop coverage example ... could not be translated
	// to Pin in its original form as Pin does not have a notion of
	// loops."
	prog := loadVictim(t, "loopy")
	_, err := Run(compile(t, progs.LoopCoverage), prog, Pin, Options{})
	if err == nil || !strings.Contains(err.Error(), "no notion of loops") {
		t.Fatalf("err = %v, want loop-rejection", err)
	}
}

func TestUseAfterFreeDetection(t *testing.T) {
	for _, b := range Backends() {
		out, _ := runTool(t, progs.UseAfterFree, loadVictim(t, "uaf_bug"), b)
		if !strings.Contains(out, "ERROR: use after free access") {
			t.Errorf("%s: UAF not detected: %q", b, out)
		}
		if n := strings.Count(out, "ERROR"); n != 1 {
			t.Errorf("%s: %d errors, want exactly 1", b, n)
		}
		out, _ = runTool(t, progs.UseAfterFree, loadVictim(t, "uaf_clean"), b)
		if out != "" {
			t.Errorf("%s: false positive on clean program: %q", b, out)
		}
	}
}

func TestShadowStackDetection(t *testing.T) {
	for _, b := range Backends() {
		out, _ := runTool(t, progs.ShadowStack, loadVictim(t, "stack_smash"), b)
		if !strings.Contains(out, "ERROR") {
			t.Errorf("%s: smashed return not detected: %q", b, out)
		}
		out, _ = runTool(t, progs.ShadowStack, loadVictim(t, "stack_clean"), b)
		if out != "" {
			t.Errorf("%s: false positive on clean program: %q", b, out)
		}
	}
}

func TestForwardCFIDetection(t *testing.T) {
	for _, b := range Backends() {
		out, _ := runTool(t, progs.ForwardCFI, loadVictim(t, "indirect_attack"), b)
		if n := strings.Count(out, "ERROR"); n != 1 {
			t.Errorf("%s: corrupted indirect call: %d errors, want 1 (%q)", b, n, out)
		}
		out, _ = runTool(t, progs.ForwardCFI, loadVictim(t, "indirect_clean"), b)
		if out != "" {
			t.Errorf("%s: false positive on clean program: %q", b, out)
		}
	}
}

func TestDyninstRefusesImpreciseBinaries(t *testing.T) {
	s, _ := workload.ByName("gcc") // unrecoverable jump tables
	mods, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	prog := loadMods(t, mods)
	_, err = Run(compile(t, progs.InstCountBB), prog, Dyninst, Options{})
	if err == nil || !strings.Contains(err.Error(), "control-flow recovery failed") {
		t.Fatalf("err = %v, want recovery failure", err)
	}
	// Pin and Janus handle the same binary fine.
	for _, b := range []string{Pin, Janus} {
		prog := loadMods(t, mods)
		if _, err := Run(compile(t, progs.InstCountBB), prog, b, Options{}); err != nil {
			t.Errorf("%s: %v", b, err)
		}
	}
}

func TestBenchmarkCountsAgreeOnSuite(t *testing.T) {
	// Spot-check two benchmarks: per-load and per-block counting agree
	// with each other and with ground truth, on every backend that can
	// process the binary.
	for _, name := range []string{"mcf", "deepsjeng"} {
		s, _ := workload.ByName(name)
		mods, err := s.Build(0.05)
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: count loads with a raw VM probe.
		prog := loadMods(t, mods)
		machine := vm.New(prog, vm.Config{})
		var truth uint64
		for _, m := range prog.Modules {
			for _, f := range m.Funcs {
				for _, blk := range f.Blocks {
					for _, in := range blk.Insts {
						if in.Op == isa.Load {
							if err := machine.Add(vm.Site{When: vm.BeforeInst, Addr: in.Addr}, vm.Probe{Fn: func(*vm.Ctx) { truth++ }}); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
		if _, err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		for _, b := range Backends() {
			for _, toolName := range []string{progs.InstCountBasic, progs.InstCountBB} {
				prog := loadMods(t, mods)
				out, _ := runTool(t, toolName, prog, b)
				got := strings.TrimSpace(out)
				want := strconv.FormatUint(truth, 10)
				if got != want {
					t.Errorf("%s/%s/%s: count = %s, want %s", name, b, toolName, got, want)
				}
			}
		}
	}
}

func TestCinnamonOverheadOrdering(t *testing.T) {
	// The Figure 13 premise: running the same Cinnamon bb-count tool
	// costs more cycles than running the program uninstrumented, and the
	// per-framework base costs differ.
	s, _ := workload.ByName("mcf")
	mods, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	base := loadMods(t, mods)
	bare := vm.New(base, vm.Config{})
	bres, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		prog := loadMods(t, mods)
		_, res := runTool(t, progs.InstCountBB, prog, b)
		if res.Cycles <= bres.Cycles {
			t.Errorf("%s: instrumented cycles %d <= bare %d", b, res.Cycles, bres.Cycles)
		}
		if res.Insts != bres.Insts {
			t.Errorf("%s: instruction count changed: %d vs %d", b, res.Insts, bres.Insts)
		}
	}
}
