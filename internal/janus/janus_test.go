package janus

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vm"
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

const hCount HandlerID = 1

// loadCounter builds the canonical Janus tool: the static pass annotates
// every load with a rewrite rule; the dynamic handler increments a
// counter.
func loadCounter(count *uint64) *Tool {
	return &Tool{
		Name: "loadcount",
		StaticPass: func(sa *StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						if in.Op == isa.Load {
							sa.EmitRule(Rule{
								BlockAddr: b.Start,
								InstAddr:  in.Addr,
								Trigger:   TriggerBefore,
								Handler:   hCount,
							})
						}
					}
				}
			}
		},
		Handlers: map[HandlerID]Handler{
			hCount: {Fn: func(*vm.Ctx, []uint64) { *count++ }, Cost: 10, Inlinable: true},
		},
	}
}

func TestLoadCounting(t *testing.T) {
	prog := build(t, loadsSrc)
	var count uint64
	res, err := Run(prog, loadCounter(&count), vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Errorf("load count = %d, want 11", count)
	}
	if res.Insts == 0 {
		t.Error("no instructions")
	}
}

func TestStaticAnalyzerSeesOnlyExecutable(t *testing.T) {
	lib := `
.module libshared
.global libfn
.func libfn
  mov  r12, @lbuf
  load r13, [r12]
  ret
.data
lbuf: .quad 9
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
	prog := build(t, main, lib)
	var count uint64
	tool := loadCounter(&count)
	rt := AnalyzeOnly(prog, tool)
	if rt.NumPlacements() != 1 {
		t.Errorf("rules = %d, want 1 (main-module load only)", rt.NumPlacements())
	}
	if _, err := Run(prog, tool, vm.Config{}); err != nil {
		t.Fatal(err)
	}
	// The two shared-library loads execute uninstrumented.
	if count != 1 {
		t.Errorf("count = %d, want 1 (shared-library loads invisible)", count)
	}
}

func TestRulePayloadReachesHandler(t *testing.T) {
	prog := build(t, loadsSrc)
	const hData HandlerID = 7
	var got []uint64
	tool := &Tool{
		Name: "payload",
		StaticPass: func(sa *StaticAnalyzer) {
			f := sa.Executable().Funcs[0]
			b := f.Blocks[0]
			// Static analysis data: the block's ID and instruction count.
			sa.EmitRule(Rule{
				BlockAddr: b.Start,
				Trigger:   TriggerBlockEntry,
				Handler:   hData,
				Data:      []uint64{uint64(b.ID), uint64(len(b.Insts))},
			})
		},
		Handlers: map[HandlerID]Handler{
			hData: {Fn: func(_ *vm.Ctx, data []uint64) { got = append([]uint64(nil), data...) }},
		},
	}
	if _, err := Run(prog, tool, vm.Config{}); err != nil {
		t.Fatal(err)
	}
	f := prog.Modules[0].Funcs[0]
	if len(got) != 2 || got[0] != uint64(f.Blocks[0].ID) || got[1] != uint64(len(f.Blocks[0].Insts)) {
		t.Errorf("payload = %v", got)
	}
}

func TestTriggers(t *testing.T) {
	prog := build(t, loadsSrc)
	f := prog.Modules[0].Funcs[0]
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d", len(f.Loops))
	}
	loop := f.Loops[0]
	const (
		hEntry HandlerID = iota + 1
		hIter
		hInit
		hFini
		hAfter
	)
	var entries, iters, afters int
	var initRan, finiRan bool
	tool := &Tool{
		Name: "triggers",
		StaticPass: func(sa *StaticAnalyzer) {
			for _, e := range loop.Entries {
				sa.EmitRule(Rule{BlockAddr: e.To.Start, Aux: e.From.Start, Trigger: TriggerEdge, Handler: hEntry})
			}
			for _, e := range loop.Backs {
				sa.EmitRule(Rule{BlockAddr: e.To.Start, Aux: e.From.Start, Trigger: TriggerEdge, Handler: hIter})
			}
			// After-trigger on the first load.
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					if in.Op == isa.Load {
						sa.EmitRule(Rule{BlockAddr: b.Start, InstAddr: in.Addr, Trigger: TriggerAfter, Handler: hAfter})
						return
					}
				}
			}
		},
		Handlers: map[HandlerID]Handler{
			hEntry: {Fn: func(*vm.Ctx, []uint64) { entries++ }},
			hIter:  {Fn: func(*vm.Ctx, []uint64) { iters++ }},
			hInit:  {Fn: func(*vm.Ctx, []uint64) { initRan = true }},
			hFini:  {Fn: func(*vm.Ctx, []uint64) { finiRan = true }},
			hAfter: {Fn: func(*vm.Ctx, []uint64) { afters++ }},
		},
	}
	// Init/fini rules are global.
	inner := tool.StaticPass
	tool.StaticPass = func(sa *StaticAnalyzer) {
		sa.EmitRule(Rule{Trigger: TriggerInit, Handler: hInit})
		sa.EmitRule(Rule{Trigger: TriggerFini, Handler: hFini})
		inner(sa)
	}
	if _, err := Run(prog, tool, vm.Config{}); err != nil {
		t.Fatal(err)
	}
	if entries != 1 || iters != 9 {
		t.Errorf("entries=%d iters=%d, want 1, 9", entries, iters)
	}
	if afters != 1 {
		t.Errorf("afters = %d, want 1", afters)
	}
	if !initRan || !finiRan {
		t.Error("init/fini rules did not fire")
	}
}

func TestUnknownHandlerIgnored(t *testing.T) {
	prog := build(t, loadsSrc)
	tool := &Tool{
		Name: "bad",
		StaticPass: func(sa *StaticAnalyzer) {
			f := sa.Executable().Funcs[0]
			sa.EmitRule(Rule{BlockAddr: f.Blocks[0].Start, Trigger: TriggerBlockEntry, Handler: 99})
		},
		Handlers: map[HandlerID]Handler{},
	}
	if _, err := Run(prog, tool, vm.Config{}); err != nil {
		t.Fatalf("unknown handler should be skipped, got %v", err)
	}
}

func TestInliningCostOrdering(t *testing.T) {
	costOf := func(inlinable bool) uint64 {
		prog := build(t, loadsSrc)
		var count uint64
		tool := loadCounter(&count)
		h := tool.Handlers[hCount]
		h.Inlinable = inlinable
		tool.Handlers[hCount] = h
		res, err := Run(prog, tool, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	clean, inlined := costOf(false), costOf(true)
	if clean-inlined != 11*(CleanCallCost-InlinedCallCost) {
		t.Errorf("cost delta = %d, want %d", clean-inlined, 11*(CleanCallCost-InlinedCallCost))
	}
}

func TestDynamicContextInHandler(t *testing.T) {
	prog := build(t, loadsSrc)
	const hEA HandlerID = 3
	var eas []uint64
	tool := &Tool{
		Name: "ea",
		StaticPass: func(sa *StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						if in.Op == isa.Load {
							sa.EmitRule(Rule{BlockAddr: b.Start, InstAddr: in.Addr, Trigger: TriggerBefore, Handler: hEA})
						}
					}
				}
			}
		},
		Handlers: map[HandlerID]Handler{
			hEA: {Fn: func(c *vm.Ctx, _ []uint64) {
				if ea, ok := c.MemAddr(); ok {
					eas = append(eas, ea)
				}
			}},
		},
	}
	if _, err := Run(prog, tool, vm.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(eas) != 11 {
		t.Fatalf("EAs = %d, want 11", len(eas))
	}
	buf, _ := prog.Modules[0].Loaded.SymAddr("buf")
	if eas[0] != buf || eas[1] != buf+8 {
		t.Errorf("EAs = %#x, %#x; want %#x, %#x", eas[0], eas[1], buf, buf+8)
	}
}
