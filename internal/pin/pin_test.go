package pin

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

// loadsSrc executes exactly 11 loads: one before the loop, then one per
// 10 loop iterations.
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

func TestInstructionCounting(t *testing.T) {
	prog := build(t, loadsSrc)
	p := New(prog, vm.Config{})
	var count uint64
	p.INSAddInstrumentFunction(func(ins INS) {
		if ins.IsMemoryRead() {
			if err := ins.InsertCall(IPointBefore, Routine{Fn: func([]uint64) { count++ }, Cost: 10}); err != nil {
				t.Fatal(err)
			}
		}
	})
	var finiRan bool
	p.AddFiniFunction(func() { finiRan = true })
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Errorf("load count = %d, want 11", count)
	}
	if !finiRan {
		t.Error("fini function did not run")
	}
}

func TestTraceModeBlockCounting(t *testing.T) {
	prog := build(t, loadsSrc)
	p := New(prog, vm.Config{})
	var blocks uint64
	p.TraceAddInstrumentFunction(func(tr TRACE) {
		for _, bbl := range tr.BBLs() {
			if bbl.NumIns() == 0 {
				t.Error("empty BBL")
			}
			if err := bbl.InsertCall(Routine{Fn: func([]uint64) { blocks++ }, Cost: 10, Inlinable: true}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// Blocks executed: entry(1) + body(10) + exit(1).
	if blocks != 12 {
		t.Errorf("block executions = %d, want 12", blocks)
	}
}

const callSrc = `
.module a.out
.executable
.entry main
.extern malloc
.func main
  mov  r1, 48
  call malloc
  call helper
  halt
.func helper
  mov r0, 9
  ret
`

func TestRTNMode(t *testing.T) {
	prog := build(t, callSrc)
	p := New(prog, vm.Config{})
	entries := map[string]int{}
	exits := map[string]int{}
	var helperRet uint64
	p.RTNAddInstrumentFunction(func(r RTN) {
		name := r.Name()
		if err := r.InsertCallEntry(Routine{Fn: func([]uint64) { entries[name]++ }}); err != nil {
			t.Fatal(err)
		}
		if err := r.InsertCallExit(Routine{Fn: func(args []uint64) {
			exits[name]++
			helperRet = args[0]
		}}, RetVal()); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if entries["main"] != 1 || entries["helper"] != 1 {
		t.Errorf("entries = %v", entries)
	}
	if exits["helper"] != 1 {
		t.Errorf("exits = %v", exits)
	}
	if helperRet != 9 {
		t.Errorf("helper ret = %d, want 9", helperRet)
	}
}

func TestIMGMode(t *testing.T) {
	lib := `
.module libshared
.global libfn
.func libfn
  ret
`
	main := `
.module a.out
.executable
.entry main
.extern libfn
.func main
  call libfn
  halt
`
	prog := build(t, main, lib)
	p := New(prog, vm.Config{})
	var imgs []string
	var mainExe int
	p.IMGAddInstrumentFunction(func(img IMG) {
		imgs = append(imgs, img.Name())
		if img.IsMainExecutable() {
			mainExe++
		}
		if len(img.RTNs()) == 0 {
			t.Errorf("image %s has no routines", img.Name())
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 || imgs[0] != "a.out" || imgs[1] != "libshared" {
		t.Errorf("images = %v", imgs)
	}
	if mainExe != 1 {
		t.Errorf("main executables = %d", mainExe)
	}
}

func TestPinSeesSharedLibraryCode(t *testing.T) {
	lib := `
.module libshared
.global libfn
.func libfn
  mov  r12, @libbuf
  load r13, [r12]
  load r13, [r12+8]
  ret
.data
libbuf: .quad 5, 6
`
	main := `
.module a.out
.executable
.entry main
.extern libfn
.func main
  call libfn
  call libfn
  halt
`
	prog := build(t, main, lib)
	p := New(prog, vm.Config{})
	var loads uint64
	p.INSAddInstrumentFunction(func(ins INS) {
		if ins.IsMemoryRead() {
			if err := ins.InsertCall(IPointBefore, Routine{Fn: func([]uint64) { loads++ }}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 loads per call, 2 calls — all inside the shared library, which
	// only a dynamic framework observes.
	if loads != 4 {
		t.Errorf("shared-lib loads = %d, want 4", loads)
	}
}

func TestIARGMaterialization(t *testing.T) {
	prog := build(t, callSrc)
	p := New(prog, vm.Config{})
	var got []uint64
	var callInst *isa.Inst
	p.INSAddInstrumentFunction(func(ins INS) {
		if ins.IsCall() && ins.DirectTargetName() == "malloc" {
			callInst = ins.Inst()
			err := ins.InsertCall(IPointBefore, Routine{Fn: func(args []uint64) {
				got = append([]uint64(nil), args...)
			}}, InstPtr(), FuncArg(1), Const(99), BranchTarget(), Fallthrough(), RegValue(isa.R1))
			if err != nil {
				t.Fatal(err)
			}
			if err := ins.InsertCall(IPointAfter, Routine{Fn: func(args []uint64) {
				if args[0] != obj.HeapBase {
					t.Errorf("retval = %#x, want %#x", args[0], obj.HeapBase)
				}
			}}, RetVal()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if callInst == nil || len(got) != 6 {
		t.Fatalf("args = %v", got)
	}
	if got[0] != callInst.Addr {
		t.Errorf("InstPtr = %#x, want %#x", got[0], callInst.Addr)
	}
	if got[1] != 48 || got[5] != 48 {
		t.Errorf("FuncArg/RegValue = %d/%d, want 48", got[1], got[5])
	}
	if got[2] != 99 {
		t.Errorf("Const = %d", got[2])
	}
	if got[3] != vm.RuntimeExterns()["malloc"] {
		t.Errorf("BranchTarget = %#x", got[3])
	}
	if got[4] != callInst.Next() {
		t.Errorf("Fallthrough = %#x, want %#x", got[4], callInst.Next())
	}
}

func TestMemoryEAArg(t *testing.T) {
	prog := build(t, loadsSrc)
	p := New(prog, vm.Config{})
	var eas []uint64
	p.INSAddInstrumentFunction(func(ins INS) {
		if ins.IsMemoryRead() {
			if err := ins.InsertCall(IPointBefore, Routine{Fn: func(args []uint64) {
				eas = append(eas, args[0])
			}}, MemoryEA()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(eas) != 11 {
		t.Fatalf("EAs = %d, want 11", len(eas))
	}
	buf, ok := prog.Modules[0].Loaded.SymAddr("buf")
	if !ok {
		t.Fatal("buf missing")
	}
	if eas[0] != buf {
		t.Errorf("first EA = %#x, want %#x", eas[0], buf)
	}
	for _, ea := range eas[1:] {
		if ea != buf+8 {
			t.Errorf("loop EA = %#x, want %#x", ea, buf+8)
		}
	}
}

// TestEdgeCall fires an edge call once per loop back edge taken, with no
// arguments, and prices the call like any clean call.
func TestEdgeCall(t *testing.T) {
	run := func(edge bool) (uint64, [][]uint64) {
		prog := build(t, loadsSrc)
		p := New(prog, vm.Config{})
		var calls [][]uint64
		if edge {
			back := prog.Modules[0].Funcs[0].Loops[0].Backs[0]
			r := Routine{Fn: func(args []uint64) { calls = append(calls, append([]uint64(nil), args...)) }, Cost: 10}
			if err := p.InsertEdgeCall(back.From.Start, back.To.Start, r); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, calls
	}
	base, _ := run(false)
	cycles, calls := run(true)
	if len(calls) != 9 {
		t.Fatalf("edge calls = %d, want 9", len(calls))
	}
	for _, args := range calls {
		if len(args) != 0 {
			t.Errorf("edge call args = %v, want none", args)
		}
	}
	if got, want := cycles-base, uint64(9*(CleanCallCost+10)); got != want {
		t.Errorf("edge calls cost %d cycles, want %d", got, want)
	}
}

func TestCleanCallCostsMoreThanInlined(t *testing.T) {
	costOf := func(inlinable bool) uint64 {
		prog := build(t, loadsSrc)
		p := New(prog, vm.Config{})
		p.INSAddInstrumentFunction(func(ins INS) {
			if ins.IsMemoryRead() {
				if err := ins.InsertCall(IPointBefore, Routine{Fn: func([]uint64) {}, Cost: 10, Inlinable: inlinable}); err != nil {
					t.Fatal(err)
				}
			}
		})
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	clean, inlined := costOf(false), costOf(true)
	if clean <= inlined {
		t.Errorf("clean call (%d) should cost more than inlined (%d)", clean, inlined)
	}
	if clean-inlined != 11*(CleanCallCost-InlinedCallCost) {
		t.Errorf("cost delta = %d, want %d", clean-inlined, 11*(CleanCallCost-InlinedCallCost))
	}
}

func TestInsertErrors(t *testing.T) {
	prog := build(t, loadsSrc)
	p := New(prog, vm.Config{})
	p.INSAddInstrumentFunction(func(ins INS) {
		if ins.IsBranch() {
			if err := ins.InsertCall(IPointAfter, Routine{Fn: func([]uint64) {}}); err == nil {
				t.Error("IPointAfter on branch succeeded")
			}
			if err := ins.InsertCall(IPoint(9), Routine{Fn: func([]uint64) {}}); err == nil {
				t.Error("bogus IPoint succeeded")
			}
		}
	})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
}
