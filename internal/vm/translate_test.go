package vm

// Differential tests for the block-translation tier: every observable —
// Result fields, output, trap text, probe fire counts and contexts —
// must be byte-identical between ExecTranslated and ExecInterpreted.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/isa"
)

func TestExecModeString(t *testing.T) {
	if ExecTranslated.String() != "translated" || ExecInterpreted.String() != "interpreted" {
		t.Errorf("String() = %q, %q", ExecTranslated.String(), ExecInterpreted.String())
	}
}

// modeRun executes prog in the given mode with setup installing probes,
// and returns everything observable about the run.
type modeRun struct {
	res    *Result
	err    string
	out    string
	cycles uint64
	fires  map[string]int
}

func runMode(t *testing.T, prog *cfg.Program, mode ExecMode, fuel uint64,
	setup func(v *VM, fires map[string]int)) modeRun {
	t.Helper()
	var out bytes.Buffer
	v := New(prog, Config{ExecMode: mode, AppOut: &out, Fuel: fuel})
	fires := map[string]int{}
	if setup != nil {
		setup(v, fires)
	}
	res, err := v.Run()
	mr := modeRun{out: out.String(), fires: fires, cycles: v.cycles}
	if err != nil {
		mr.err = err.Error()
	}
	mr.res = res
	return mr
}

func diffModes(t *testing.T, name string, a, b modeRun) {
	t.Helper()
	if a.err != b.err {
		t.Errorf("%s: error %q (translated) vs %q (interpreted)", name, a.err, b.err)
	}
	if a.out != b.out {
		t.Errorf("%s: output %q vs %q", name, a.out, b.out)
	}
	if a.cycles != b.cycles {
		t.Errorf("%s: cycles %d vs %d", name, a.cycles, b.cycles)
	}
	if (a.res == nil) != (b.res == nil) {
		t.Fatalf("%s: result nil mismatch", name)
	}
	if a.res != nil && *a.res != *b.res {
		t.Errorf("%s: result %+v vs %+v", name, *a.res, *b.res)
	}
	if len(a.fires) != len(b.fires) {
		t.Errorf("%s: fire keys %v vs %v", name, a.fires, b.fires)
	}
	for k, av := range a.fires {
		if bv := b.fires[k]; av != bv {
			t.Errorf("%s: fires[%s] %d vs %d", name, k, av, bv)
		}
	}
}

// findInst returns the nth instruction with the given opcode in the
// executable (address order), or nil.
func findInst(prog *cfg.Program, op isa.Op, n int) *isa.Inst {
	seen := 0
	for _, f := range prog.Modules[0].Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Op == op {
					if seen == n {
						return in
					}
					seen++
				}
			}
		}
	}
	return nil
}

// instByOp is findInst that fails the test when absent.
func instByOp(t *testing.T, prog *cfg.Program, op isa.Op, n int) *isa.Inst {
	t.Helper()
	in := findInst(prog, op, n)
	if in == nil {
		t.Fatalf("no instruction #%d with op %v", n, op)
	}
	return in
}

// blockOf returns the block containing addr in the executable.
func blockOf(t *testing.T, prog *cfg.Program, addr uint64) *cfg.Block {
	t.Helper()
	for _, f := range prog.Modules[0].Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Addr == addr {
					return b
				}
			}
		}
	}
	t.Fatalf("no block contains %#x", addr)
	return nil
}

const tierCallSrc = `
.module a.out
.executable
.entry main
.extern print
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 8
head:
  mov r8, r2
  call bump
  add r1, r1, r8
  store r1, [sp-8]
  load r4, [sp-8]
  add r2, r2, 1
  blt r2, r3, head
  mov r1, r1
  call print
  halt
.func bump
  add r8, r8, 5
  mul r8, r8, 3
  ret
`

const tierTrapSrc = `
.module a.out
.executable
.entry main
.func main
  mov r1, 10
  mov r2, 3
div_l:
  div r3, r1, r2
  sub r2, r2, 1
  add r1, r1, r3
  b div_l
`

// TestExecModesBitIdentical runs programs covering loops, calls, probes
// of every kind, traps and fuel exhaustion under both tiers and demands
// byte-identical observables.
func TestExecModesBitIdentical(t *testing.T) {
	probeAll := func(prog *cfg.Program) func(v *VM, fires map[string]int) {
		add := instByOp(t, prog, isa.Add, 0)
		call := findInst(prog, isa.Call, 0)
		blk := blockOf(t, prog, add.Addr)
		return func(v *VM, fires map[string]int) {
			if err := v.Add(Site{When: BeforeInst, Addr: add.Addr}, Probe{Cost: 3, Fn: func(c *Ctx) { fires["before"]++ }}); err != nil {
				t.Fatal(err)
			}
			if err := v.Add(Site{When: AfterInst, Addr: add.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) { fires["after"]++ }}); err != nil {
				t.Fatal(err)
			}
			if call != nil {
				if err := v.Add(Site{When: AfterInst, Addr: call.Addr}, Probe{Cost: 4, Fn: func(c *Ctx) { fires["call-after"]++ }}); err != nil {
					t.Fatal(err)
				}
			}
			if err := v.Add(Site{When: AtBlockEntry, Addr: blk.Start}, Probe{Cost: 1, Fn: func(c *Ctx) { fires["entry"]++ }}); err != nil {
				t.Fatal(err)
			}
			for _, pred := range blk.Preds {
				pred := pred
				if err := v.Add(Site{When: AtEdge, Addr: blk.Start, From: pred.Start}, Probe{Cost: 1, Fn: func(c *Ctx) {
					fires[fmt.Sprintf("edge-%x", pred.Start)]++
				}}); err != nil {
					t.Fatal(err)
				}
			}
			v.OnStart(func(c *Ctx) { fires["start"]++ })
			v.OnEnd(func(c *Ctx) { fires["end"]++ })
		}
	}

	cases := []struct {
		name string
		src  string
		fuel uint64
	}{
		{"sum", sumSrc, 0},
		{"calls", tierCallSrc, 0},
		{"trap", tierTrapSrc, 0},
		{"fuel", tierCallSrc, 37},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, probed := range []bool{false, true} {
				prog := build(t, c.src)
				var setup func(v *VM, fires map[string]int)
				if probed {
					setup = probeAll(prog)
				}
				a := runMode(t, prog, ExecTranslated, c.fuel, setup)
				b := runMode(t, prog, ExecInterpreted, c.fuel, setup)
				diffModes(t, fmt.Sprintf("%s/probed=%v", c.name, probed), a, b)
			}
		})
	}
}

// TestFuelParityAcrossModes sweeps every fuel value through the point of
// exhaustion: the translated tier's hoisted accounting must trap after
// exactly the same instruction, with the same counters and error text,
// as the per-instruction loop.
func TestFuelParityAcrossModes(t *testing.T) {
	prog := build(t, tierCallSrc)
	full := runMode(t, prog, ExecInterpreted, 0, nil)
	if full.err != "" {
		t.Fatal(full.err)
	}
	for fuel := uint64(1); fuel <= full.res.Insts+1; fuel++ {
		a := runMode(t, prog, ExecTranslated, fuel, nil)
		b := runMode(t, prog, ExecInterpreted, fuel, nil)
		diffModes(t, fmt.Sprintf("fuel=%d", fuel), a, b)
	}
}

const invalidateSrc = `
.module a.out
.executable
.entry main
.func main
  mov r1, 0
  mov r3, 10
  mov r4, 5
head:
  add r1, r1, 1
  store r1, [sp-8]
  load r2, [sp-8]
  beq r1, r4, mid
  b cont
mid:
  nop
cont:
  blt r1, r3, head
  halt
`

// TestMidRunCacheInvalidation installs probes from the translator hook
// of a block that first executes halfway through the run (the nop
// block): into its own block, and — before/after/edge — into the loop
// head, which has already executed and been translated five times. The
// translated tier must invalidate the head's cached block program and
// fire identically to the interpreter for the remaining iterations.
func TestMidRunCacheInvalidation(t *testing.T) {
	prog := build(t, invalidateSrc)
	add := instByOp(t, prog, isa.Add, 0)
	nop := instByOp(t, prog, isa.Nop, 0)
	headBlk := blockOf(t, prog, add.Addr)
	nopBlk := blockOf(t, prog, nop.Addr)

	setup := func(v *VM, fires map[string]int) {
		err := v.SetTranslator(0, func(b *cfg.Block) {
			fires["translate"]++
			if b.Start != nopBlk.Start {
				return
			}
			// Own block: fused when this hook runs at block entry.
			if err := v.Add(Site{When: BeforeInst, Addr: nop.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) { fires["own-before"]++ }}); err != nil {
				t.Error(err)
			}
			// Already-executed, already-translated block: must be
			// invalidated and retranslated with the probes fused.
			if err := v.Add(Site{When: BeforeInst, Addr: add.Addr}, Probe{Cost: 3, Fn: func(c *Ctx) { fires["head-before"]++ }}); err != nil {
				t.Error(err)
			}
			if err := v.Add(Site{When: AfterInst, Addr: add.Addr}, Probe{Cost: 1, Fn: func(c *Ctx) { fires["head-after"]++ }}); err != nil {
				t.Error(err)
			}
			for _, pred := range headBlk.Preds {
				pred := pred
				if err := v.Add(Site{When: AtEdge, Addr: headBlk.Start, From: pred.Start}, Probe{Cost: 1, Fn: func(c *Ctx) { fires["head-edge"]++ }}); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	a := runMode(t, prog, ExecTranslated, 0, setup)
	b := runMode(t, prog, ExecInterpreted, 0, setup)
	diffModes(t, "invalidate", a, b)

	// The loop runs r1 = 1..10; the nop block first executes at r1 == 5,
	// so the head probes cover iterations 6..10.
	want := map[string]int{"own-before": 1, "head-before": 5, "head-after": 5}
	for k, n := range want {
		if a.fires[k] != n {
			t.Errorf("fires[%s] = %d, want %d", k, a.fires[k], n)
		}
	}
	if a.fires["head-edge"] == 0 {
		t.Error("head edge probe never fired")
	}
}

// TestMidBlockProbeInstall installs a probe from a running probe body
// into a later instruction of the same, currently-executing block. The
// interpreter reads probe lists live, so the new probe fires in the
// same pass; the translated tier must invalidate its running block
// program and finish the block with identical semantics.
func TestMidBlockProbeInstall(t *testing.T) {
	prog := build(t, hotBlockSrc)
	mul := instByOp(t, prog, isa.Mul, 0)
	store := instByOp(t, prog, isa.Store, 0)

	setup := func(v *VM, fires map[string]int) {
		installed := false
		if err := v.Add(Site{When: BeforeInst, Addr: mul.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) {
			fires["mul-before"]++
			if installed {
				return
			}
			installed = true
			if err := v.Add(Site{When: AfterInst, Addr: store.Addr}, Probe{Cost: 1, Fn: func(c *Ctx) { fires["store-after"]++ }}); err != nil {
				t.Error(err)
			}
		}}); err != nil {
			t.Fatal(err)
		}
	}
	a := runMode(t, prog, ExecTranslated, 0, setup)
	b := runMode(t, prog, ExecInterpreted, 0, setup)
	diffModes(t, "mid-block install", a, b)
	// The store-after probe is installed during the first pass over the
	// block, before the store executes, so it fires on every iteration.
	if a.fires["store-after"] != a.fires["mul-before"] {
		t.Errorf("store-after fired %d times, want %d (same pass as install)",
			a.fires["store-after"], a.fires["mul-before"])
	}
}

const ctxBlockSrc = `
.module a.out
.executable
.entry main
.func main
  mov r8, 1
  mov r9, 4
  call bump
back:
  add r8, r8, 1
  blt r8, r9, back
  halt
.func bump
  add r8, r8, 2
  ret
`

// TestCallAfterCtxBlock pins the fire-context save/restore fix: a
// call's after-probe fires at the fall-through, where dispatch has
// already moved Ctx.Block to the fall-through block; the probe must
// still observe the call's own block, and a nested block-entry fire in
// between must not clobber it.
func TestCallAfterCtxBlock(t *testing.T) {
	for _, mode := range []ExecMode{ExecTranslated, ExecInterpreted} {
		t.Run(mode.String(), func(t *testing.T) {
			prog := build(t, ctxBlockSrc)
			call := instByOp(t, prog, isa.Call, 0)
			callBlk := blockOf(t, prog, call.Addr)
			fallBlk := blockOf(t, prog, call.Next())
			if callBlk == fallBlk {
				t.Fatal("call fall-through must start a new block for this test")
			}
			v := New(prog, Config{ExecMode: mode})
			var got, entryBlk *cfg.Block
			if err := v.Add(Site{When: AfterInst, Addr: call.Addr}, Probe{Cost: 1, Fn: func(c *Ctx) { got = c.Block() }}); err != nil {
				t.Fatal(err)
			}
			// The fall-through block's entry fire runs in the same
			// dispatch as the pending call-after drain; neither context
			// may leak into the other.
			if err := v.Add(Site{When: AtBlockEntry, Addr: fallBlk.Start}, Probe{Cost: 1, Fn: func(c *Ctx) { entryBlk = c.Block() }}); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			if got != callBlk {
				t.Errorf("call-after saw block %p, want call's block %p", got, callBlk)
			}
			if entryBlk != fallBlk {
				t.Errorf("block-entry saw block %p, want fall-through block %p", entryBlk, fallBlk)
			}
		})
	}
}

// TestTranslatedDispatchSpeedup is the perf regression gate for the
// block-translation tier: on the probe-free hot-block workload the
// translated tier must beat the interpreter by at least 3.7x (medians
// of 4.07x measured on a 2-vCPU host, against 3.62x when each
// instruction ran as its own closure). Each side
// of a pair is one whole run, building its machine inside the timed op,
// and the gate compares the medians of 1 001 alternating pairs
// (medianRuns), accepting the first of three attempts that clears the
// floor. Like the other perf gates it only runs when CINNAMON_PERF_GATE
// is set.
func TestTranslatedDispatchSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the translation perf gate")
	}
	prog := buildTB(t, hotBlockSrc)
	run := func(mode ExecMode) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			if _, err := New(prog, Config{ExecMode: mode}).Run(); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
	}
	const want = 3.7
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		interp, trans := medianRuns(1001, run(ExecInterpreted), run(ExecTranslated))
		speedup = interp / trans
		t.Logf("attempt %d: interpreted %.0f ns/run, translated %.0f ns/run, speedup %.2fx",
			attempt, interp, trans, speedup)
		if speedup >= want {
			return
		}
	}
	t.Errorf("translated tier is only %.2fx faster than interpreted (want >= %.1fx)", speedup, want)
}
