package vm

import (
	"testing"

	"repro/internal/isa"
)

// Tests for the subtler probe semantics: after-call probes across nested
// calls, edge probes around call/return boundaries, and probe ordering.

func TestNestedAfterCallProbes(t *testing.T) {
	// outer calls mid, mid calls inner; after-probes on both calls must
	// fire in inner-then-outer order, each seeing its own callee's
	// return value.
	src := `
.module a.out
.executable
.entry main
.func main
  call mid
  halt
.func mid
  call inner
  add r0, r0, 1     ; r0 = 11 after inner returns
  ret
.func inner
  mov r0, 10
  ret
`
	prog := build(t, src)
	var callMid, callInner *isa.Inst
	for _, f := range prog.Modules[0].Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Op == isa.Call {
					if f.Name == "main" {
						callMid = in
					} else {
						callInner = in
					}
				}
			}
		}
	}
	v := New(prog, Config{})
	var order []string
	if err := v.Add(Site{When: AfterInst, Addr: callMid.Addr}, Probe{Fn: func(c *Ctx) {
		order = append(order, "mid")
		if c.RetVal() != 11 {
			t.Errorf("after mid: retval = %d, want 11", c.RetVal())
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: AfterInst, Addr: callInner.Addr}, Probe{Fn: func(c *Ctx) {
		order = append(order, "inner")
		if c.RetVal() != 10 {
			t.Errorf("after inner: retval = %d, want 10", c.RetVal())
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "inner" || order[1] != "mid" {
		t.Errorf("order = %v, want [inner mid]", order)
	}
}

func TestAfterCallOnRecursion(t *testing.T) {
	// A recursive call's after-probe must fire once per call, at the
	// matching depth.
	src := `
.module a.out
.executable
.entry main
.func main
  mov  r1, 3
  call down
  halt
.func down
  mov  r7, 1
  blt  r1, r7, base
  sub  r1, r1, 1
  call down
  ret
base:
  mov r0, 99
  ret
`
	prog := build(t, src)
	var rec *isa.Inst
	for _, b := range prog.FuncByName("down").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Call {
				rec = in
			}
		}
	}
	v := New(prog, Config{})
	fires := 0
	if err := v.Add(Site{When: AfterInst, Addr: rec.Addr}, Probe{Fn: func(c *Ctx) { fires++ }}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	// r1=3 -> recursive calls with r1=2,1,0: three recursive invocations.
	if fires != 3 {
		t.Errorf("after-probe fired %d times, want 3", fires)
	}
}

func TestEdgeProbeAcrossCallBoundary(t *testing.T) {
	// A loop whose body ends with a call followed (at a block boundary)
	// by the loop header: the back edge must still be observed even
	// though control passes through the callee in between.
	src := `
.module a.out
.executable
.entry main
.func main
  mov r8, 0
head:
  add r8, r8, 1
  call helper
  mov r7, 4
  blt r8, r7, head
  halt
.func helper
  mov r12, 1
  ret
`
	prog := build(t, src)
	main := prog.FuncByName("main")
	if len(main.Loops) != 1 {
		t.Fatalf("loops = %d", len(main.Loops))
	}
	loop := main.Loops[0]
	v := New(prog, Config{})
	iters := 0
	for _, e := range loop.Backs {
		if err := v.Add(Site{When: AtEdge, Addr: e.To.Start, From: e.From.Start}, Probe{Fn: func(*Ctx) { iters++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if iters != 3 {
		t.Errorf("back edges = %d, want 3", iters)
	}
}

func TestEdgeProbeWhenReturnLandsOnBlockStart(t *testing.T) {
	// If a call is the last instruction of a block (because the next
	// instruction is a branch target), the fall-through edge is
	// traversed by the return; the edge probe must attribute it to the
	// caller's block, not the callee's.
	src := `
.module a.out
.executable
.entry main
.func main
  mov r8, 0
  call helper
join:
  add r8, r8, 1
  mov r7, 2
  blt r8, r7, join
  halt
.func helper
  mov r12, 1
  ret
`
	prog := build(t, src)
	main := prog.FuncByName("main")
	entry := main.Blocks[0]
	if entry.Last().Op != isa.Call {
		t.Fatalf("test setup: entry block should end with the call, ends with %s", entry.Last())
	}
	join := main.Blocks[1]
	v := New(prog, Config{})
	crossings := 0
	if err := v.Add(Site{When: AtEdge, Addr: join.Start, From: entry.Start}, Probe{Fn: func(*Ctx) { crossings++ }}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if crossings != 1 {
		t.Errorf("entry->join crossings = %d, want 1", crossings)
	}
}

func TestProbeOrderingAtSamePoint(t *testing.T) {
	// Probes at the same point fire in registration order — the
	// guarantee behind Cinnamon's "actions are instrumented in program
	// order" (Section III-B7).
	prog := build(t, sumSrc)
	var addInst *isa.Inst
	for _, b := range prog.FuncByName("main").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Add && addInst == nil {
				addInst = in
			}
		}
	}
	v := New(prog, Config{})
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Fn: func(*Ctx) {
			if len(order) < 3 {
				order = append(order, i)
			}
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestAfterProbeOnIntrinsicCall(t *testing.T) {
	src := `
.module a.out
.executable
.entry main
.extern malloc
.func main
  mov  r1, 16
  call malloc
  mov  r5, r0
  halt
`
	prog := build(t, src)
	var call *isa.Inst
	for _, b := range prog.FuncByName("main").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Call {
				call = in
			}
		}
	}
	v := New(prog, Config{})
	var got uint64
	if err := v.Add(Site{When: AfterInst, Addr: call.Addr}, Probe{Fn: func(c *Ctx) { got = c.RetVal() }}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("after-probe on intrinsic call did not observe the return value")
	}
}

func TestCtxContextFields(t *testing.T) {
	prog := build(t, sumSrc)
	main := prog.FuncByName("main")
	v := New(prog, Config{})
	checked := false
	if err := v.Add(Site{When: AtBlockEntry, Addr: main.Blocks[1].Start}, Probe{Fn: func(c *Ctx) {
		if checked {
			return
		}
		checked = true
		if c.Func() != main {
			t.Errorf("Func = %v", c.Func())
		}
		if c.Module() == nil || c.Module().Name() != "a.out" {
			t.Errorf("Module = %v", c.Module())
		}
		if c.Depth() != 0 {
			t.Errorf("Depth = %d", c.Depth())
		}
		if c.StackTop() == 0 {
			t.Error("StackTop = 0")
		}
		lo, hi := c.HeapRange()
		if lo >= hi {
			t.Error("HeapRange inverted")
		}
		if c.When() != AtBlockEntry {
			t.Errorf("When = %v", c.When())
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("probe never fired")
	}
}
