package dyninst

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vm"
	"repro/internal/workload"
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

func TestStaticInstrumentation(t *testing.T) {
	prog := build(t, loadsSrc)
	be, err := OpenBinary(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var loads uint64
	for _, f := range be.Image().Functions() {
		for _, bb := range f.Blocks() {
			for n, in := range bb.Instructions() {
				if in.Op == isa.Load {
					snippet := FuncCallExpr{Fn: func([]uint64) { loads++ }, Cost: 10}
					if err := be.InsertSnippet(snippet, bb.InstPoints()[n], CallBefore); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	var initRan, finiRan bool
	be.OnInit(func() { initRan = true })
	be.OnFini(func() { finiRan = true })
	res, err := be.Run()
	if err != nil {
		t.Fatal(err)
	}
	if loads != 11 {
		t.Errorf("load count = %d, want 11", loads)
	}
	if !initRan || !finiRan {
		t.Error("init/fini did not run")
	}
	if res.Insts == 0 {
		t.Error("no instructions")
	}
}

func TestFindFunctionAndPoints(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern print
.func main
  call helper
  call helper
  halt
.func helper
  mov r7, 2
  beq r7, r8, alt
  ret
alt:
  ret
`
	prog := build(t, src)
	be, err := OpenBinary(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	img := be.Image()
	helper, err := img.FindFunction("helper")
	if err != nil {
		t.Fatal(err)
	}
	if helper.Name() != "helper" || helper.Address() != helper.Func().Entry {
		t.Error("function metadata wrong")
	}
	if _, err := img.FindFunction("nope"); err == nil {
		t.Error("FindFunction(nope) succeeded")
	}
	entry, err := helper.FindPoint(Entry)
	if err != nil || len(entry) != 1 {
		t.Fatalf("entry points = %v, %v", entry, err)
	}
	exits, err := helper.FindPoint(Exit)
	if err != nil || len(exits) != 2 {
		t.Fatalf("exit points = %d, want 2", len(exits))
	}
	main, _ := img.FindFunction("main")
	calls, err := main.FindPoint(Subroutine)
	if err != nil || len(calls) != 2 {
		t.Fatalf("call points = %d, want 2", len(calls))
	}
	if _, err := helper.FindPoint(ProcedureLocation(42)); err == nil {
		t.Error("bogus location succeeded")
	}

	var entries, rets, callsSeen int
	for _, p := range entry {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { entries++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range exits {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { rets++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range calls {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { callsSeen++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	if entries != 2 || rets != 2 || callsSeen != 2 {
		t.Errorf("entries=%d rets=%d calls=%d, want 2 each", entries, rets, callsSeen)
	}
}

func TestLoopPoints(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.func main
  mov r8, 0
  mov r9, 5
head:
  add r8, r8, 1
  blt r8, r9, head
  halt
`
	prog := build(t, src)
	be, err := OpenBinary(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	main, _ := be.Image().FindFunction("main")
	loops := main.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	l := loops[0]
	var entries, iters, exits int
	for _, p := range l.EntryPoints() {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { entries++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range l.IterPoints() {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { iters++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range l.ExitPoints() {
		if err := be.InsertSnippet(FuncCallExpr{Fn: func([]uint64) { exits++ }}, p, CallBefore); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	if entries != 1 || iters != 4 || exits != 1 {
		t.Errorf("entries=%d iters=%d exits=%d, want 1, 4, 1", entries, iters, exits)
	}
}

func TestSnippetExpressions(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern malloc
.func main
  mov   r1, 24
  call  malloc
  mov   r5, r0
  store r5, [r5+8]
  halt
`
	prog := build(t, src)
	be, err := OpenBinary(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	main, _ := be.Image().FindFunction("main")
	var callInstPt, storePt *Point
	var callAddr uint64
	for _, bb := range main.Blocks() {
		for n, in := range bb.Instructions() {
			switch in.Op {
			case isa.Call:
				callInstPt = bb.InstPoints()[n]
				callAddr = in.Addr
			case isa.Store:
				storePt = bb.InstPoints()[n]
			}
		}
	}
	var got []uint64
	err = be.InsertSnippet(FuncCallExpr{
		Fn:   func(args []uint64) { got = append([]uint64(nil), args...) },
		Args: []Snippet{RetExpr{}, ParamExpr{N: 1}, ConstExpr{Val: 5}, InstAddrExpr{}, RegExpr{Reg: isa.R1}},
	}, callInstPt, CallAfter)
	if err != nil {
		t.Fatal(err)
	}
	var ea, tgt uint64
	err = be.InsertSnippet(SequenceExpr{Items: []Snippet{
		FuncCallExpr{Fn: func(args []uint64) { ea = args[0] }, Args: []Snippet{EffectiveAddressExpr{}}},
		FuncCallExpr{Fn: func(args []uint64) { tgt = args[0] }, Args: []Snippet{BranchTargetExpr{}}},
	}}, storePt, CallBefore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("args = %v", got)
	}
	if got[0] != obj.HeapBase {
		t.Errorf("RetExpr = %#x, want heap base", got[0])
	}
	if got[1] != 24 || got[4] != 24 {
		t.Errorf("ParamExpr/RegExpr = %d/%d, want 24", got[1], got[4])
	}
	if got[2] != 5 || got[3] != callAddr {
		t.Errorf("ConstExpr/InstAddrExpr = %d/%#x", got[2], got[3])
	}
	if ea != obj.HeapBase+8 {
		t.Errorf("EffectiveAddressExpr = %#x, want %#x", ea, obj.HeapBase+8)
	}
	if tgt != 0 {
		t.Errorf("BranchTargetExpr on store = %#x, want 0", tgt)
	}
}

func TestRefusesImpreciseControlFlow(t *testing.T) {
	s, ok := workload.ByName("perlbench") // unrecoverable jump tables
	if !ok {
		t.Fatal("perlbench missing")
	}
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
	if _, err := OpenBinary(prog, vm.Config{}); err == nil {
		t.Fatal("OpenBinary accepted unrecoverable control flow")
	} else if !strings.Contains(err.Error(), "control-flow recovery failed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAcceptsRecoverableJumpTables(t *testing.T) {
	s, _ := workload.ByName("deepsjeng") // recoverable jump tables
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
	if _, err := OpenBinary(prog, vm.Config{}); err != nil {
		t.Fatalf("OpenBinary rejected recoverable control flow: %v", err)
	}
}

func TestInsertSnippetErrors(t *testing.T) {
	prog := build(t, loadsSrc)
	be, err := OpenBinary(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := be.InsertSnippet(ConstExpr{}, nil, CallBefore); err == nil {
		t.Error("nil point accepted")
	}
	main, _ := be.Image().FindFunction("main")
	entry, _ := main.FindPoint(Entry)
	if err := be.InsertSnippet(ConstExpr{}, entry[0], CallAfter); err == nil {
		t.Error("callAfter at block point accepted")
	}
	if _, err := be.Image().InstPoint(3); err == nil {
		t.Error("InstPoint(3) accepted")
	}
	pt, err := be.Image().InstPoint(main.Address())
	if err != nil || pt == nil {
		t.Errorf("InstPoint(entry) failed: %v", err)
	}
}
