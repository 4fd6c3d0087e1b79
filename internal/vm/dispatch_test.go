package vm

// Tests and benchmarks for the dispatch fast paths: module lookup with
// more than two modules (MRU + binary search) and the per-offset probe
// storage the Run loop indexes instead of hash maps.

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/obs"
)

func buildTB(tb testing.TB, srcs ...string) *cfg.Program {
	tb.Helper()
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			tb.Fatal(err)
		}
		mods = append(mods, m)
	}
	p, err := obj.Load(mods, RuntimeExterns())
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

func TestModForManyModules(t *testing.T) {
	// Four modules: execution bounces across all of them, and probes are
	// installed in every module, so both the Run loop and the installer
	// exercise modFor beyond the two-module case the MRU cache alone
	// would cover.
	lib := func(name, fn string, inc int) string {
		return fmt.Sprintf(`
.module %s
.global %s
.func %s
  add r0, r1, %d
  ret
`, name, fn, fn, inc)
	}
	main := `
.module a.out
.executable
.entry main
.extern f1
.extern f2
.extern f3
.extern print
.func main
  mov r9, 0
  mov r10, 3
head:
  mov r1, r9
  call f1
  mov r1, r0
  call f2
  mov r1, r0
  call f3
  mov r9, r0
  add r10, r10, 0
  sub r10, r10, 1
  mov r11, 0
  blt r11, r10, head
  mov r1, r9
  call print
  halt
`
	prog := buildTB(t, main, lib("liba", "f1", 1), lib("libb", "f2", 10), lib("libc", "f3", 100))
	if len(prog.Modules) != 4 {
		t.Fatalf("modules = %d, want 4", len(prog.Modules))
	}
	v := New(prog, Config{})

	// modFor resolves every module's address range, regardless of lookup
	// order (defeating the MRU cache between queries).
	for i := len(v.mods) - 1; i >= 0; i-- {
		m := v.mods[i]
		v.lastM = v.mods[(i+1)%len(v.mods)]
		if got := v.modFor(m.base); got != m {
			t.Errorf("modFor(%#x) = %+v, want module with that base", m.base, got)
		}
		if got := v.modFor(m.base + uint64(len(m.insts)) - 1); got != m {
			t.Errorf("modFor(end of %#x) missed", m.base)
		}
	}
	if got := v.modFor(0); got != nil {
		t.Errorf("modFor(0) = %+v, want nil", got)
	}
	if got := v.modFor(^uint64(0)); got != nil {
		t.Errorf("modFor(max) = %+v, want nil", got)
	}

	// One before-probe on each module's first instruction; each must fire.
	fired := make(map[string]int)
	for _, mod := range prog.Modules {
		mod := mod
		in := mod.Funcs[0].Blocks[0].Insts[0]
		if err := v.Add(Site{When: BeforeInst, Addr: in.Addr}, Probe{Fn: func(*Ctx) { fired[mod.Name()]++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if fired["a.out"] != 1 {
		t.Errorf("a.out entry probe fired %d times, want 1", fired["a.out"])
	}
	for _, name := range []string{"liba", "libb", "libc"} {
		if fired[name] != 3 {
			t.Errorf("%s probe fired %d times, want 3", name, fired[name])
		}
	}
}

// dispatchBenchSrc runs a tight counted loop: three hot instructions per
// iteration plus the backward branch.
const dispatchBenchSrc = `
.module a.out
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 1000
head:
  add r1, r1, r2
  add r2, r2, 1
  blt r2, r3, head
  halt
`

// BenchmarkVMDispatch measures the raw Run loop on an uninstrumented
// program: module lookup, flag checks, instruction execution.
func BenchmarkVMDispatch(b *testing.B) {
	prog := buildTB(b, dispatchBenchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := New(prog, Config{})
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// hotBlockSrc runs a loop whose body is one large straight-line block
// (sixteen ALU/memory instructions plus the backward branch): the shape
// block translation is built for, with per-instruction dispatch overhead
// amortized over the whole block.
const hotBlockSrc = `
.module a.out
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 2000
  mov r4, 7
head:
  add r1, r1, r2
  xor r5, r1, r4
  add r5, r5, 3
  mul r6, r5, r4
  sub r6, r6, r1
  and r7, r6, 255
  or  r7, r7, 1
  shl r8, r7, 2
  shr r8, r8, 1
  add r1, r1, r8
  store r1, [sp-8]
  load r9, [sp-8]
  add r1, r1, r9
  getptr r10, r2, r5, 4
  add r1, r1, r10
  add r2, r2, 1
  blt r2, r3, head
  halt
`

// BenchmarkDispatch is the headline dispatch benchmark: the same
// workloads under both execution tiers. "tight" is a three-instruction
// loop body (worst case for block dispatch: boundary work every three
// instructions); "hot" is a sixteen-instruction block, probe-free;
// "counted" is the hot block with a promoted counter (a Flush probe)
// before each of its instructions, the shape of an opcode-mix tool;
// "ejected" is the tight loop on an adaptive, observed machine with an
// entry probe on the loop block and one on its back edge, both ejected
// at start, which the translated tier should run as fast as "tight".
func BenchmarkDispatch(b *testing.B) {
	var sink int64
	counters := func(v *VM, prog *cfg.Program) {
		for _, in := range prog.FuncByName("main").Blocks[1].Insts {
			if err := v.Add(Site{When: BeforeInst, Addr: in.Addr}, Probe{
				Cost: 1, Fn: func(*Ctx) { sink++ }, Flush: func(n int64) { sink += n },
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	ejected := func(v *VM, prog *cfg.Program) {
		head := prog.FuncByName("main").Blocks[1].Start
		for _, s := range []Site{{When: AtBlockEntry, Addr: head}, {When: AtEdge, Addr: head, From: head}} {
			if err := v.Add(s, Probe{Cost: 1, Fn: func(*Ctx) { sink++ }}); err != nil {
				b.Fatal(err)
			}
		}
		for _, p := range v.AdaptiveProbes(nil) {
			v.SetProbeEnabled(p.ID, false)
		}
	}
	for _, c := range []struct {
		name, src string
		setup     func(*VM, *cfg.Program)
		// adaptive runs the case on an adaptive machine with a
		// collector, whose probes can be ejected.
		adaptive bool
	}{
		{"tight", dispatchBenchSrc, nil, false},
		{"hot", hotBlockSrc, nil, false},
		{"counted", hotBlockSrc, counters, false},
		{"ejected", dispatchBenchSrc, ejected, true},
	} {
		prog := buildTB(b, c.src)
		for _, mode := range []ExecMode{ExecTranslated, ExecInterpreted} {
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfgv := Config{ExecMode: mode}
					if c.adaptive {
						cfgv.Adaptive, cfgv.Obs = true, obs.New(obs.Options{})
					}
					v := New(prog, cfgv)
					if c.setup != nil {
						c.setup(v, prog)
					}
					if _, err := v.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProbeFire measures probe dispatch: the same loop with a
// before-probe on each hot instruction, so every executed instruction
// pays the probe-storage access and callback invocation.
func BenchmarkProbeFire(b *testing.B) {
	prog := buildTB(b, dispatchBenchSrc)
	var addrs []uint64
	for _, blk := range prog.FuncByName("main").Blocks {
		for _, in := range blk.Insts {
			if in.Op == isa.Add {
				addrs = append(addrs, in.Addr)
			}
		}
	}
	if len(addrs) == 0 {
		b.Fatal("no add instructions found")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var count uint64
	for i := 0; i < b.N; i++ {
		v := New(prog, Config{})
		for _, a := range addrs {
			if err := v.Add(Site{When: BeforeInst, Addr: a}, Probe{Cost: 1, Fn: func(*Ctx) { count++ }}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
	_ = count
}
