package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/obs"
)

func build(t *testing.T, srcs ...string) *cfg.Program {
	t.Helper()
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	p, err := obj.Load(mods, RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func run(t *testing.T, prog *cfg.Program) (*VM, *Result, string) {
	t.Helper()
	var out bytes.Buffer
	v := New(prog, Config{AppOut: &out})
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v, res, out.String()
}

const sumSrc = `
.module a.out
.executable
.entry main
.extern print
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 10
head:
  add r1, r1, r2
  add r2, r2, 1
  blt r2, r3, head
  call print
  halt
`

func TestSumLoop(t *testing.T) {
	prog := build(t, sumSrc)
	_, res, out := run(t, prog)
	if out != "45\n" {
		t.Errorf("output = %q, want 45", out)
	}
	// 3 movs + 10*(add,add,blt) + call + halt = 35 instructions.
	if res.Insts != 35 {
		t.Errorf("insts = %d, want 35", res.Insts)
	}
	if res.Cycles == 0 || res.ExitCode != 0 {
		t.Errorf("cycles=%d exit=%d", res.Cycles, res.ExitCode)
	}
}

func TestArithmeticOps(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern print
.func main
  mov r2, 100
  mov r3, 7
  div r1, r2, r3      ; 14
  call print
  rem r1, r2, r3      ; 2
  call print
  mul r1, r2, r3      ; 700
  call print
  sub r1, r2, r3      ; 93
  call print
  and r1, r2, 12      ; 4
  call print
  or  r1, r2, 3       ; 103
  call print
  xor r1, r2, 5       ; 97
  call print
  shl r1, r2, 2       ; 400
  call print
  shr r1, r2, 2       ; 25
  call print
  getptr r1, r2, r3, 9 ; 116
  call print
  mov r5, -4
  mov r6, 2
  div r1, r5, r6      ; -2 signed
  call print
  halt
`
	prog := build(t, src)
	_, _, out := run(t, prog)
	want := "14\n2\n700\n93\n4\n103\n97\n400\n25\n116\n-2\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestMallocStoreLoad(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern malloc
.extern free
.extern print
.func main
  mov   r1, 64
  call  malloc
  mov   r5, r0
  mov   r2, 1234
  store r2, [r5+16]
  load  r1, [r5+16]
  call  print
  mov   r1, r5
  call  free
  halt
`
	prog := build(t, src)
	_, res, out := run(t, prog)
	if out != "1234\n" {
		t.Errorf("output = %q", out)
	}
	if res.Allocs != 1 || res.Frees != 1 {
		t.Errorf("allocs=%d frees=%d", res.Allocs, res.Frees)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	// fib(10) = 55 via naive recursion.
	src := `
.module a.out
.executable
.entry main
.extern print
.func main
  mov  r1, 10
  call fib
  mov  r1, r0
  call print
  halt
.func fib
  mov  r7, 2
  blt  r1, r7, base
  sub  sp, sp, 16
  store r1, [sp]
  sub  r1, r1, 1
  call fib
  store r0, [sp+8]
  load r1, [sp]
  sub  r1, r1, 2
  call fib
  load r7, [sp+8]
  add  r0, r0, r7
  add  sp, sp, 16
  ret
base:
  mov  r0, r1
  ret
`
	prog := build(t, src)
	_, _, out := run(t, prog)
	if out != "55\n" {
		t.Errorf("fib out = %q, want 55", out)
	}
}

func TestExitCode(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern exit
.func main
  mov r1, 42
  call exit
  halt
`
	prog := build(t, src)
	_, res, _ := run(t, prog)
	if res.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", res.ExitCode)
	}
}

func TestCrossModuleCall(t *testing.T) {
	lib := `
.module libshared
.global double
.func double
  add r0, r1, r1
  ret
`
	main := `
.module a.out
.executable
.entry main
.extern double
.extern print
.func main
  mov r1, 21
  call double
  mov r1, r0
  call print
  halt
`
	prog := build(t, main, lib)
	_, _, out := run(t, prog)
	if out != "42\n" {
		t.Errorf("out = %q, want 42", out)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"div by zero", ".module a.out\n.executable\n.entry main\n.func main\n mov r2, 0\n div r1, r1, r2\n halt\n", "division by zero"},
		{"rem by zero", ".module a.out\n.executable\n.entry main\n.func main\n mov r2, 0\n rem r1, r1, r2\n halt\n", "division by zero"},
		{"bad jump", ".module a.out\n.executable\n.entry main\n.func main\n mov r2, 5\n b r2\n halt\n", "outside code"},
		{"mid-inst jump", ".module a.out\n.executable\n.entry main\n.func main\n mov r2, @main+1\n b r2\n halt\n", "instruction boundary"},
	}
	for _, c := range cases {
		prog := build(t, c.src)
		v := New(prog, Config{})
		_, err := v.Run()
		if err == nil {
			t.Errorf("%s: Run succeeded, want trap", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.wantSub)
		}
		var trap *TrapError
		if !strings.Contains(err.Error(), "trap") {
			t.Errorf("%s: not a trap error: %T", c.name, trap)
		}
	}
}

func TestFuel(t *testing.T) {
	src := ".module a.out\n.executable\n.entry main\n.func main\nspin:\n b spin\n"
	prog := build(t, src)
	v := New(prog, Config{Fuel: 100})
	if _, err := v.Run(); err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("err = %v, want fuel trap", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern malloc
.func main
loop:
  mov r1, 0x1000000
  call malloc
  b loop
`
	prog := build(t, src)
	v := New(prog, Config{})
	if _, err := v.Run(); err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Errorf("err = %v, want heap trap", err)
	}
}

func TestBeforeAfterProbes(t *testing.T) {
	prog := build(t, sumSrc)
	f := prog.FuncByName("main")
	// Probe the first add (loop body).
	var addInst *isa.Inst
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Add && addInst == nil {
				addInst = in
			}
		}
	}
	v := New(prog, Config{})
	var before, after int
	if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Cost: 5, Fn: func(c *Ctx) {
		before++
		if c.Inst() != addInst || c.When() != BeforeInst {
			t.Error("bad ctx in before probe")
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: AfterInst, Addr: addInst.Addr}, Probe{Cost: 5, Fn: func(c *Ctx) { after++ }}); err != nil {
		t.Fatal(err)
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if before != 10 || after != 10 {
		t.Errorf("before=%d after=%d, want 10", before, after)
	}
	// Probe cost charged: 10*(5+5) = 100 extra units vs bare run.
	bare := New(prog, Config{})
	bres, err := bare.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != bres.Cycles+100 {
		t.Errorf("cycles = %d, want %d", res.Cycles, bres.Cycles+100)
	}
}

func TestAfterCallSeesReturnValue(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern malloc
.func main
  mov r0, 0
  mov r1, 32
  call malloc
  halt
`
	prog := build(t, src)
	var callInst *isa.Inst
	for _, b := range prog.FuncByName("main").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Call {
				callInst = in
			}
		}
	}
	v := New(prog, Config{})
	var sawBefore, sawAfter uint64
	sawBefore, sawAfter = 1, 1
	if err := v.Add(Site{When: BeforeInst, Addr: callInst.Addr}, Probe{Fn: func(c *Ctx) {
		sawBefore = c.RetVal()
		if c.CallArg(1) != 32 {
			t.Errorf("CallArg(1) = %d, want 32", c.CallArg(1))
		}
		if got := c.TargetName(); got != "malloc" {
			t.Errorf("TargetName = %q, want malloc", got)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: AfterInst, Addr: callInst.Addr}, Probe{Fn: func(c *Ctx) {
		sawAfter = c.RetVal()
		if c.Inst() != callInst {
			t.Error("after-probe inst mismatch")
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if sawBefore != 0 {
		t.Errorf("before-call retval = %#x, want 0", sawBefore)
	}
	if sawAfter != obj.HeapBase {
		t.Errorf("after-call retval = %#x, want heap base %#x", sawAfter, obj.HeapBase)
	}
}

func TestAfterRealCallFiresAfterReturn(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.func main
  call helper
  halt
.func helper
  mov r0, 77
  ret
`
	prog := build(t, src)
	var callInst *isa.Inst
	for _, b := range prog.FuncByName("main").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Call {
				callInst = in
			}
		}
	}
	v := New(prog, Config{})
	var got uint64
	if err := v.Add(Site{When: AfterInst, Addr: callInst.Addr}, Probe{Fn: func(c *Ctx) { got = c.RetVal() }}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("after-call retval = %d, want 77", got)
	}
}

func TestBlockEntryAndEdgeProbes(t *testing.T) {
	prog := build(t, sumSrc)
	f := prog.FuncByName("main")
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d", len(f.Loops))
	}
	loop := f.Loops[0]
	v := New(prog, Config{})
	var headEntries, iters, entries, exits int
	if err := v.Add(Site{When: AtBlockEntry, Addr: loop.Header.Start}, Probe{Fn: func(c *Ctx) {
		headEntries++
		if c.Block() != loop.Header {
			t.Error("block ctx mismatch")
		}
	}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range loop.Backs {
		if err := v.Add(Site{When: AtEdge, Addr: e.To.Start, From: e.From.Start}, Probe{Fn: func(c *Ctx) { iters++ }}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range loop.Entries {
		if err := v.Add(Site{When: AtEdge, Addr: e.To.Start, From: e.From.Start}, Probe{Fn: func(c *Ctx) { entries++ }}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range loop.Exits {
		if err := v.Add(Site{When: AtEdge, Addr: e.To.Start, From: e.From.Start}, Probe{Fn: func(c *Ctx) { exits++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if headEntries != 10 {
		t.Errorf("header entries = %d, want 10", headEntries)
	}
	if iters != 9 {
		t.Errorf("back-edge traversals = %d, want 9", iters)
	}
	if entries != 1 || exits != 1 {
		t.Errorf("entries=%d exits=%d, want 1, 1", entries, exits)
	}
}

func TestTranslatorCalledOncePerBlock(t *testing.T) {
	prog := build(t, sumSrc)
	v := New(prog, Config{})
	counts := map[uint64]int{}
	if err := v.SetTranslator(0, func(b *cfg.Block) { counts[b.Start]++ }); err != nil {
		t.Fatal(err)
	}
	if err := v.SetTranslator(0, func(b *cfg.Block) {}); err == nil {
		t.Error("second SetTranslator succeeded")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	f := prog.FuncByName("main")
	if len(counts) != len(f.Blocks) {
		t.Errorf("translated %d blocks, want %d", len(counts), len(f.Blocks))
	}
	for addr, n := range counts {
		if n != 1 {
			t.Errorf("block %#x translated %d times", addr, n)
		}
	}
}

func TestTranslatorCanInstrument(t *testing.T) {
	prog := build(t, sumSrc)
	v := New(prog, Config{})
	execBlocks := 0
	if err := v.SetTranslator(0, func(b *cfg.Block) {
		if err := v.Add(Site{When: AtBlockEntry, Addr: b.Start}, Probe{Fn: func(c *Ctx) { execBlocks++ }}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// Block executions: entry(1) + loop body(10) + exit(1) = 12.
	if execBlocks != 12 {
		t.Errorf("block executions = %d, want 12", execBlocks)
	}
}

// TestTranslationPricedByMachine checks that the machine prices block
// translation on both tiers: each block's first entry charges the
// translator's cost once, before the hook runs, and notes it on the
// collector.
func TestTranslationPricedByMachine(t *testing.T) {
	const cost = 400
	bare, err := New(build(t, sumSrc), Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ExecTranslated, ExecInterpreted} {
		col := obs.New(obs.Options{})
		v := New(build(t, sumSrc), Config{Obs: col, ExecMode: mode})
		blocks := uint64(0)
		if err := v.SetTranslator(cost, func(b *cfg.Block) {
			blocks++
			if blocks == 1 && v.Cycles() != cost {
				t.Errorf("%s: first hook sees %d cycles, want the charge %d already paid", mode, v.Cycles(), cost)
			}
		}); err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if blocks != uint64(len(build(t, sumSrc).FuncByName("main").Blocks)) {
			t.Errorf("%s: %d translations, want one per block", mode, blocks)
		}
		if got := res.Cycles - bare.Cycles; got != blocks*cost {
			t.Errorf("%s: translation charged %d cycles, want %d", mode, got, blocks*cost)
		}
		if b := col.Snapshot("").Build; b.BlocksTranslated != int(blocks) || b.TranslationCycles != blocks*cost {
			t.Errorf("%s: noted %d translations costing %d, want %d costing %d", mode, b.BlocksTranslated, b.TranslationCycles, blocks, blocks*cost)
		}
	}
}

func TestStartEndHooks(t *testing.T) {
	prog := build(t, sumSrc)
	v := New(prog, Config{})
	var events []When
	v.OnStart(func(c *Ctx) { events = append(events, c.When()) })
	v.OnEnd(func(c *Ctx) { events = append(events, c.When()) })
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != AtStart || events[1] != AtEnd {
		t.Errorf("events = %v", events)
	}
}

// TestProbeRegistrationErrors drives the one installer through a table:
// every site or probe Add cannot honour is rejected and leaves the run
// untouched (no firing, no charge, no control block, no attribution
// row), and a coalesced probe on each trigger reports one attribution
// row per share while charging the shares' sum per firing.
func TestProbeRegistrationErrors(t *testing.T) {
	const src = `
.module a.out
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 10
head:
  add r1, r1, r2
  add r2, r2, 1
  blt r2, r3, head
  call leaf
  halt
.func leaf
  ret
`
	prog := build(t, src)
	bare, err := New(prog, Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	add := instByOp(t, prog, isa.Add, 0)
	head := blockOf(t, prog, add.Addr).Start
	mid := instByOp(t, prog, isa.Add, 1).Addr // inside the loop block
	const bad = 0x3                           // no instruction or block starts here
	shareCosts := []uint64{5, 7}

	cases := []struct {
		name      string
		adaptive  bool
		site      Site
		coalesced bool
		stride    uint64
		fires     uint64 // 0: Add must reject the probe
	}{
		{"no instruction", false, Site{When: BeforeInst, Addr: bad}, false, 0, 0},
		{"after on branch", false, Site{When: AfterInst, Addr: instByOp(t, prog, isa.Branch, 0).Addr}, false, 0, 0},
		{"after on return", false, Site{When: AfterInst, Addr: instByOp(t, prog, isa.Return, 0).Addr}, false, 0, 0},
		{"after on halt", false, Site{When: AfterInst, Addr: instByOp(t, prog, isa.Halt, 0).Addr}, false, 0, 0},
		{"entry at nowhere", false, Site{When: AtBlockEntry, Addr: bad}, false, 0, 0},
		{"entry mid-block", false, Site{When: AtBlockEntry, Addr: mid}, false, 0, 0},
		{"edge to nowhere", false, Site{When: AtEdge, Addr: bad, From: head}, false, 0, 0},
		{"edge to mid-block", false, Site{When: AtEdge, Addr: mid, From: head}, false, 0, 0},
		{"edge from mid-block", false, Site{When: AtEdge, Addr: head, From: mid}, false, 0, 0},
		{"edge from nowhere", false, Site{When: AtEdge, Addr: head, From: bad}, false, 0, 0},
		{"program start", false, Site{When: AtStart}, false, 0, 0},
		{"program end", false, Site{When: AtEnd}, false, 0, 0},
		{"coalesced on adaptive machine", true, Site{When: BeforeInst, Addr: add.Addr}, true, 0, 0},
		{"sampled coalesced", false, Site{When: BeforeInst, Addr: add.Addr}, true, 2, 0},
		{"coalesced before", false, Site{When: BeforeInst, Addr: add.Addr}, true, 0, 10},
		{"coalesced after", false, Site{When: AfterInst, Addr: add.Addr}, true, 0, 10},
		{"coalesced entry", false, Site{When: AtBlockEntry, Addr: head}, true, 0, 10},
		{"coalesced back edge", false, Site{When: AtEdge, Addr: head, From: head}, true, 0, 9},
	}
	for _, c := range cases {
		col := obs.New(obs.Options{})
		v := New(prog, Config{Obs: col, Adaptive: c.adaptive})
		fires := uint64(0)
		p := Probe{Cost: 3, Stride: c.stride, Fn: func(*Ctx) { fires++ }}
		perFire := p.Cost
		if c.coalesced {
			perFire = 0
			for _, cost := range shareCosts {
				p.Shares = append(p.Shares, Share{Cost: cost})
				perFire += cost
			}
		}
		if err := v.Add(c.site, p); (err != nil) != (c.fires == 0) {
			t.Errorf("%s: Add error = %v, want rejection %v", c.name, err, c.fires == 0)
			continue
		}
		if c.fires == 0 && len(v.AdaptiveProbes(nil)) != 0 {
			t.Errorf("%s: rejected probe left a control block", c.name)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fires != c.fires || res.Cycles-bare.Cycles != c.fires*perFire {
			t.Errorf("%s: %d fires charging %d cycles, want %d charging %d", c.name, fires, res.Cycles-bare.Cycles, c.fires, c.fires*perFire)
		}
		s := col.Snapshot("")
		if s.UntrackedFires != 0 {
			t.Errorf("%s: %d untracked fires", c.name, s.UntrackedFires)
		}
		rows := 1
		if c.coalesced {
			rows = len(shareCosts)
		}
		if c.fires == 0 {
			rows = 0
		}
		if len(s.Probes) != rows {
			t.Errorf("%s: %d attribution rows, want %d", c.name, len(s.Probes), rows)
		}
		for i, row := range s.Probes {
			if row.Fires != c.fires || row.Cycles != c.fires*row.DispatchCost {
				t.Errorf("%s: row %d = %d fires, %d cycles; want %d, %d", c.name, i, row.Fires, row.Cycles, c.fires, c.fires*row.DispatchCost)
			}
		}
	}
}

// TestAddRegistersRows checks the row Add registers on each trigger: the
// trigger's report name, the site address (an after-probe's own
// instruction, not its fall-through; an edge's destination block), the
// label, the mechanism and the dispatch cost — and, for a coalesced
// probe, one row per share in share order — and that every firing lands
// on its row.
func TestAddRegistersRows(t *testing.T) {
	prog := build(t, sumSrc)
	add := instByOp(t, prog, isa.Add, 0)
	call := instByOp(t, prog, isa.Call, 0)
	head := blockOf(t, prog, add.Addr).Start
	col := obs.New(obs.Options{})
	v := New(prog, Config{Obs: col})
	nop := func(*Ctx) {}
	mustAdd(t, v, Site{When: BeforeInst, Addr: add.Addr}, Probe{Fn: nop, Cost: 5, Label: "before", Mechanism: obs.MechCleanCall})
	mustAdd(t, v, Site{When: AfterInst, Addr: call.Addr}, Probe{Fn: nop, Cost: 7, Label: "after", Mechanism: obs.MechInlinedCall})
	mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Fn: nop, Cost: 3, Label: "entry", Mechanism: obs.MechSnippet})
	mustAdd(t, v, Site{When: AtEdge, Addr: head, From: head}, Probe{Fn: nop, Shares: []Share{
		{Label: "share a", Mechanism: obs.MechCleanCall, Cost: 2},
		{Label: "share b", Mechanism: obs.MechInlinedCall, Cost: 4},
	}})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		meta  obs.ProbeMeta
		fires uint64
	}{
		{obs.ProbeMeta{Label: "before", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall, Addr: add.Addr, DispatchCost: 5}, 10},
		{obs.ProbeMeta{Label: "after", Trigger: obs.TriggerAfter, Mechanism: obs.MechInlinedCall, Addr: call.Addr, DispatchCost: 7}, 1},
		{obs.ProbeMeta{Label: "entry", Trigger: obs.TriggerBlockEntry, Mechanism: obs.MechSnippet, Addr: head, DispatchCost: 3}, 10},
		{obs.ProbeMeta{Label: "share a", Trigger: obs.TriggerEdge, Mechanism: obs.MechCleanCall, Addr: head, DispatchCost: 2}, 9},
		{obs.ProbeMeta{Label: "share b", Trigger: obs.TriggerEdge, Mechanism: obs.MechInlinedCall, Addr: head, DispatchCost: 4}, 9},
	}
	s := col.Snapshot("")
	if len(s.Probes) != len(want) {
		t.Fatalf("%d rows, want %d", len(s.Probes), len(want))
	}
	for i, w := range want {
		row := s.Probes[i]
		if row.ProbeMeta != w.meta || row.Fires != w.fires {
			t.Errorf("row %d = %+v with %d fires, want %+v with %d", i+1, row.ProbeMeta, row.Fires, w.meta, w.fires)
		}
	}
	if s.UntrackedFires != 0 {
		t.Errorf("%d untracked fires", s.UntrackedFires)
	}
}

func TestReturnAddressOnStackIsObservable(t *testing.T) {
	// The shadow-stack case study depends on (a) the return address
	// living in real memory, (b) a ret's target being readable before it
	// executes, and (c) an overwritten return address actually diverting
	// control.
	src := `
.module a.out
.executable
.entry main
.extern print
.func main
  call victim
  halt
.func victim
  ; smash the saved return address: point it at evil
  mov   r9, @evil
  store r9, [sp]
  ret
.func evil
  mov r1, 666
  call print
  halt
`
	prog := build(t, src)
	var retInst *isa.Inst
	for _, b := range prog.FuncByName("victim").Blocks {
		if b.Last().Op == isa.Return {
			retInst = b.Last()
		}
	}
	evil := prog.FuncByName("evil")
	v := New(prog, Config{})
	var out bytes.Buffer
	v.appOut = &out
	var observed uint64
	if err := v.Add(Site{When: BeforeInst, Addr: retInst.Addr}, Probe{Fn: func(c *Ctx) {
		observed, _ = c.Target()
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != evil.Entry {
		t.Errorf("observed ret target %#x, want evil %#x", observed, evil.Entry)
	}
	if out.String() != "666\n" {
		t.Errorf("attack did not run: out=%q", out.String())
	}
}

func TestRunTwiceFails(t *testing.T) {
	prog := build(t, sumSrc)
	v := New(prog, Config{})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	// Cross-page access.
	addr := uint64(pageSize - 3)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	m.Write8(5, 0xab)
	if m.Read8(5) != 0xab {
		t.Error("byte round trip failed")
	}
	b := []byte{1, 2, 3, 4, 5}
	m.WriteBytes(0x100, b)
	if got := m.ReadBytes(0x100, 5); !bytes.Equal(got, b) {
		t.Errorf("bytes round trip = %v", got)
	}
	if m.Read64(0x9999_0000) != 0 {
		t.Error("untouched memory not zero")
	}
}

// TestQuickALUMatchesGo generates random straight-line programs over
// every operation the translated tier decodes into an inline kind or
// sends out of line — the eight ALU ops and div/rem (a zero divisor
// traps) with a register or an immediate operand, mov and getptr in
// both shapes, a store-then-load round trip — ending in a conditional
// branch, and runs each on the translated tier, on the translated tier
// with NoInline and on the interpreter. The three runs must agree on
// registers, cycles, instruction count and error text, and the
// translated run must match a direct Go evaluation of the same
// operations.
func TestQuickALUMatchesGo(t *testing.T) {
	mnems := []string{"add", "sub", "mul", "and", "or", "xor", "shl", "shr", "div", "rem", "mov", "getptr", "storeload"}
	alu := func(mnem string, a, b uint64) uint64 {
		switch mnem {
		case "add":
			return a + b
		case "sub":
			return a - b
		case "mul":
			return a * b
		case "and":
			return a & b
		case "or":
			return a | b
		case "xor":
			return a ^ b
		case "shl":
			return a << (b & 63)
		case "shr":
			return a >> (b & 63)
		case "div":
			return uint64(int64(a) / int64(b))
		case "rem":
			return uint64(int64(a) % int64(b))
		}
		panic(mnem)
	}
	type run struct {
		regs          [8]uint64
		cycles, insts uint64
		err           string
	}
	exec := func(prog *cfg.Program, c Config) run {
		v := New(prog, c)
		var out run
		if _, err := v.Run(); err != nil {
			out.err = err.Error()
		}
		for i := range out.regs {
			out.regs[i] = v.Reg(isa.Reg(8 + i))
		}
		out.cycles, out.insts = v.cycles, v.insts
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ref [8]uint64
		src := ".module q\n.executable\n.entry main\n.func main\n"
		// Seed registers r8..r15 with large, small (shift counts on
		// either side of 64) and zero values.
		for i := 0; i < 8; i++ {
			v := r.Int63()
			switch r.Intn(4) {
			case 0:
				v = int64(r.Intn(130))
			case 1:
				v = 0
			}
			ref[i] = uint64(v)
			src += fmt.Sprintf("  mov r%d, %d\n", 8+i, v)
		}
		insts := uint64(8)
		trapped := false
		for k := 0; k < 20 && !trapped; k++ {
			mnem := mnems[r.Intn(len(mnems))]
			rd, rs, rt := r.Intn(8), r.Intn(8), r.Intn(8)
			imm := int64(r.Intn(1000) - 500)
			if r.Intn(8) == 0 {
				imm = 0
			}
			useImm := r.Intn(2) == 0
			b := ref[rt]
			operand := fmt.Sprintf("r%d", 8+rt)
			if useImm {
				b, operand = uint64(imm), fmt.Sprint(imm)
			}
			insts++
			switch mnem {
			case "mov":
				src += fmt.Sprintf("  mov r%d, %s\n", 8+rd, operand)
				ref[rd] = b
			case "getptr":
				disp := int64(r.Intn(64))
				src += fmt.Sprintf("  getptr r%d, r%d, %s, %d\n", 8+rd, 8+rs, operand, disp)
				ref[rd] = ref[rs] + b + uint64(disp)
			case "storeload":
				off := 8 * (1 + r.Intn(8))
				src += fmt.Sprintf("  store r%d, [sp-%d]\n  load r%d, [sp-%d]\n", 8+rs, off, 8+rd, off)
				ref[rd] = ref[rs]
				insts++
			default:
				src += fmt.Sprintf("  %s r%d, r%d, %s\n", mnem, 8+rd, 8+rs, operand)
				if (mnem == "div" || mnem == "rem") && b == 0 {
					// The trap stops the run before the instruction
					// counts.
					trapped = true
					insts--
					continue
				}
				ref[rd] = alu(mnem, ref[rs], b)
			}
		}
		cond := isa.Cond(1 + r.Intn(6))
		src += fmt.Sprintf("  b%s r8, r9, taken\n  mov r15, 1\n  halt\ntaken:\n  mov r15, 2\n  halt\n", cond)
		if !trapped {
			ref[7] = 1
			if cond.Holds(int64(ref[0]), int64(ref[1])) {
				ref[7] = 2
			}
			insts += 3
		}
		m, err := asm.Assemble(src)
		if err != nil {
			t.Log(err)
			return false
		}
		p, err := obj.Load([]*obj.Module{m}, RuntimeExterns())
		if err != nil {
			t.Log(err)
			return false
		}
		prog, err := cfg.Build(p)
		if err != nil {
			t.Log(err)
			return false
		}
		got := exec(prog, Config{})
		if noInline := exec(prog, Config{NoInline: true}); noInline != got {
			t.Logf("seed %d: translated %+v, no-inline %+v", seed, got, noInline)
			return false
		}
		if interp := exec(prog, Config{ExecMode: ExecInterpreted}); interp != got {
			t.Logf("seed %d: translated %+v, interpreted %+v", seed, got, interp)
			return false
		}
		if got.regs != ref || got.insts != insts || trapped != strings.HasSuffix(got.err, "division by zero") {
			t.Logf("seed %d: translated %+v, want registers %#x, %d instructions, trap %v", seed, got, ref, insts, trapped)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
