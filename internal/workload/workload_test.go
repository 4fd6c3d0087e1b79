package workload

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vm"
)

func buildAndRun(t *testing.T, mods []*obj.Module, scaleFuel uint64) (*cfg.Program, *vm.Result) {
	t.Helper()
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog, vm.Config{Fuel: scaleFuel})
	res, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

func TestSuiteShape(t *testing.T) {
	suite := SPEC2017()
	if len(suite) != 23 {
		t.Fatalf("suite size = %d, want 23", len(suite))
	}
	names := map[string]bool{}
	sharedHeavy, unrecoverable := 0, 0
	for _, s := range suite {
		if names[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		names[s.Name] = true
		if s.SharedLibFrac >= 0.5 {
			sharedHeavy++
		}
		if s.Unrecoverable {
			unrecoverable++
		}
	}
	if sharedHeavy != 4 {
		t.Errorf("shared-lib-heavy benchmarks = %d, want 4", sharedHeavy)
	}
	if unrecoverable != 5 {
		t.Errorf("unrecoverable benchmarks = %d, want 5", unrecoverable)
	}
	for _, name := range []string{"omnetpp", "exchange2", "bwaves", "fotonik3d"} {
		s, ok := ByName(name)
		if !ok || s.SharedLibFrac < 0.5 {
			t.Errorf("%s should be shared-lib heavy", name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName(nonesuch) succeeded")
	}
}

func TestEveryBenchmarkBuildsAndRuns(t *testing.T) {
	for _, s := range SPEC2017() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			mods, err := s.Build(0.05)
			if err != nil {
				t.Fatal(err)
			}
			prog, res := buildAndRun(t, mods, 50_000_000)
			if res.Insts == 0 {
				t.Error("no instructions executed")
			}
			exe := prog.Modules[0]
			if exe.Name() != s.Name {
				t.Errorf("module name = %q", exe.Name())
			}
			// Structural expectations: workers + main + 2 tiny helpers.
			if len(exe.Funcs) != s.Funcs+3 {
				t.Errorf("funcs = %d, want %d", len(exe.Funcs), s.Funcs+3)
			}
			loops := 0
			for _, f := range exe.Funcs {
				loops += len(f.Loops)
			}
			if loops == 0 {
				t.Error("no loops recovered")
			}
			if s.SharedLibFrac > 0 && len(prog.Modules) != 2 {
				t.Error("shared-lib benchmark missing libshared")
			}
			if s.Unrecoverable != exe.Loaded.HasUnrecoverableControlFlow() {
				t.Errorf("unrecoverable flag mismatch: spec=%v module=%v", s.Unrecoverable, exe.Loaded.HasUnrecoverableControlFlow())
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	s, _ := ByName("mcf")
	mods1, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	mods2, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := obj.Encode(mods1[0])
	if err != nil {
		t.Fatal(err)
	}
	b2, err := obj.Encode(mods2[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("same seed produced different binaries")
	}
	_, r1 := buildAndRun(t, mods1, 50_000_000)
	_, r2 := buildAndRun(t, mods2, 50_000_000)
	if r1.Insts != r2.Insts || r1.Cycles != r2.Cycles {
		t.Errorf("nondeterministic execution: %+v vs %+v", r1, r2)
	}
}

func TestScaleGrowsWork(t *testing.T) {
	s, _ := ByName("xz")
	small, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.Build(0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, rs := buildAndRun(t, small, 100_000_000)
	_, rl := buildAndRun(t, large, 100_000_000)
	if rl.Insts <= rs.Insts {
		t.Errorf("scale 0.2 (%d insts) not larger than 0.05 (%d insts)", rl.Insts, rs.Insts)
	}
}

func TestSharedLibCodeExecutes(t *testing.T) {
	s, _ := ByName("omnetpp")
	mods, err := s.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog, vm.Config{Fuel: 50_000_000})
	lib := prog.Modules[1]
	libLoads := 0
	for _, f := range lib.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Op == isa.Load {
					if err := machine.Add(vm.Site{When: vm.BeforeInst, Addr: in.Addr}, vm.Probe{Fn: func(c *vm.Ctx) { libLoads++ }}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	if libLoads == 0 {
		t.Error("no shared-library loads executed")
	}
}

func TestVictimsAssembleAndBehave(t *testing.T) {
	for name := range Victims() {
		if _, err := Victim(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Victim("nope"); err == nil {
		t.Error("unknown victim accepted")
	}

	// uaf_bug really performs an access to freed memory.
	m, err := Victim("uaf_bug")
	if err != nil {
		t.Fatal(err)
	}
	_, res := buildAndRun(t, []*obj.Module{m}, 1_000_000)
	if res.Allocs != 1 || res.Frees != 1 {
		t.Errorf("uaf_bug allocs=%d frees=%d", res.Allocs, res.Frees)
	}

	// stack_smash diverts control into evil (the post-call print of 1 is
	// skipped; 666 is printed instead).
	m, err = Victim("stack_smash")
	if err != nil {
		t.Fatal(err)
	}
	p, err := obj.Load([]*obj.Module{m}, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	var out testWriter
	machine := vm.New(prog, vm.Config{AppOut: &out})
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "666\n" {
		t.Errorf("stack_smash output = %q, want 666", out.String())
	}

	// loopy has a recoverable loop in each function.
	m, err = Victim("loopy")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ = buildAndRun(t, []*obj.Module{m}, 1_000_000)
	total := 0
	for _, f := range prog.Modules[0].Funcs {
		total += len(f.Loops)
	}
	if total != 2 {
		t.Errorf("loopy loops = %d, want 2", total)
	}
}

type testWriter struct{ b []byte }

func (w *testWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *testWriter) String() string              { return string(w.b) }
