package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/vm"
)

// recordingPlacer captures placements instead of instrumenting anything,
// so tests can inspect exactly what the engine decided.
type recordingPlacer struct {
	prog    *cfg.Program
	modules []*cfg.Module
	loops   bool

	instBefore []placed
	instAfter  []placed
	blockEntry []placed
	edges      []placedEdge
	inits      []func()
	finis      []func()
}

type placed struct {
	addr   uint64
	action *placement.Action
}

type placedEdge struct {
	from, to uint64
	action   *placement.Action
}

func (p *recordingPlacer) Name() string           { return "recording" }
func (p *recordingPlacer) Modules() []*cfg.Module { return p.modules }
func (p *recordingPlacer) SupportsLoops() bool    { return p.loops }

// Lower records the finished rule table instead of instrumenting
// anything. Merged rules are flattened back to their constituents so
// assertions see one entry per concrete placement.
func (p *recordingPlacer) Lower(rs *placement.RuleSet) error {
	var lower func(r *placement.Rule)
	lower = func(r *placement.Rule) {
		if len(r.Merged) > 0 {
			for _, c := range r.Merged {
				lower(c)
			}
			return
		}
		switch r.Trigger {
		case placement.Before:
			p.instBefore = append(p.instBefore, placed{r.Inst.Addr, r.Action})
		case placement.After:
			p.instAfter = append(p.instAfter, placed{r.Inst.Addr, r.Action})
		case placement.BlockEntry:
			p.blockEntry = append(p.blockEntry, placed{r.Block.Start, r.Action})
		case placement.Edge:
			p.edges = append(p.edges, placedEdge{r.From.Start, r.Block.Start, r.Action})
		}
	}
	for _, r := range rs.Rules() {
		lower(r)
	}
	p.inits = rs.Inits
	p.finis = rs.Finis
	return nil
}

const appSrc = `
.module app
.executable
.entry main
.extern print
.func main
  mov  r5, @buf
  mov  r2, 0
  mov  r3, 3
head:
  load r4, [r5]
  store r4, [r5+8]
  add  r2, r2, 1
  blt  r2, r3, head
  call helper
  halt
.func helper
  load r4, [r5]
  ret
.data
buf: .quad 5, 0
`

func loadApp(t *testing.T, srcs ...string) *cfg.Program {
	t.Helper()
	if len(srcs) == 0 {
		srcs = []string{appSrc}
	}
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

func instrument(t *testing.T, src string, prog *cfg.Program, loops bool) (*recordingPlacer, *Instance, *bytes.Buffer) {
	t.Helper()
	tool, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pl := &recordingPlacer{prog: prog, modules: prog.Modules, loops: loops}
	var out bytes.Buffer
	inst, err := Instrument(tool, prog, pl, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	return pl, inst, &out
}

func TestPlacementSelection(t *testing.T) {
	prog := loadApp(t)
	pl, _, _ := instrument(t, `
inst I where (I.opcode == Load) {
  before I { print(1); }
  after I { print(2); }
}
`, prog, true)
	// Two loads in the program (head block + helper).
	if len(pl.instBefore) != 2 || len(pl.instAfter) != 2 {
		t.Fatalf("before=%d after=%d, want 2 each", len(pl.instBefore), len(pl.instAfter))
	}
	for _, p := range pl.instBefore {
		if prog.InstAt(p.addr).Op != isa.Load {
			t.Errorf("placed on non-load at %#x", p.addr)
		}
	}
}

func TestAnalysisCodeRunsPerInstance(t *testing.T) {
	prog := loadApp(t)
	_, _, out := instrument(t, `
basicblock B {
  print("block", B.id);
}
`, prog, true)
	// Analysis code runs at instrumentation time, once per block, in
	// address order.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	total := 0
	for _, m := range prog.Modules {
		for _, f := range m.Funcs {
			total += len(f.Blocks)
		}
	}
	if len(lines) != total {
		t.Fatalf("analysis ran %d times, want %d", len(lines), total)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] && len(lines[i]) == len(lines[i-1]) {
			t.Errorf("analysis order not ascending: %q after %q", lines[i], lines[i-1])
		}
	}
}

func TestNestedCommandScopesToParent(t *testing.T) {
	prog := loadApp(t)
	_, _, out := instrument(t, `
func F where (F.name == "helper") {
  inst I where (I.opcode == Load) {
    print(I.addr);
  }
}
`, prog, true)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("nested command matched %d loads, want 1 (helper only)", len(lines))
	}
	helper := prog.FuncByName("helper")
	var loadAddr uint64
	for _, b := range helper.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Load {
				loadAddr = in.Addr
			}
		}
	}
	if lines[0] != fmt.Sprintf("%d", loadAddr) {
		t.Errorf("printed %s, want %d", lines[0], loadAddr)
	}
}

func TestDeepNesting(t *testing.T) {
	prog := loadApp(t)
	_, _, out := instrument(t, `
module M {
  func F where (F.name == "main") {
    loop L {
      basicblock B {
        inst I where (I.opcode == Store) {
          print("store-in-loop");
        }
      }
    }
  }
}
`, prog, true)
	if got := strings.Count(out.String(), "store-in-loop"); got != 1 {
		t.Errorf("deep nesting matched %d stores, want 1", got)
	}
}

func TestTriggerMapping(t *testing.T) {
	prog := loadApp(t)
	pl, _, _ := instrument(t, `
func F where (F.name == "main") {
  entry F { print(1); }
  exit F { print(2); }
}
loop L {
  entry L { print(3); }
  exit L { print(4); }
  iter L { print(5); }
}
basicblock B where (B.ninsts > 3) {
  exit B { print(6); }
}
`, prog, true)
	main := prog.FuncByName("main")
	// Function entry -> block entry of the entry block.
	foundEntry := false
	for _, p := range pl.blockEntry {
		if p.addr == main.Blocks[0].Start {
			foundEntry = true
		}
	}
	if !foundEntry {
		t.Error("function entry not placed at entry block")
	}
	// Function exit -> before the halt.
	foundHalt := false
	for _, p := range pl.instBefore {
		if prog.InstAt(p.addr).Op == isa.Halt {
			foundHalt = true
		}
	}
	if !foundHalt {
		t.Error("function exit not placed before halt")
	}
	// Loop triggers -> edges (entry + exit + iter of main's loop).
	loop := main.Loops[0]
	wantEdges := len(loop.Entries) + len(loop.Exits) + len(loop.Backs)
	if len(pl.edges) != wantEdges {
		t.Errorf("edges placed = %d, want %d", len(pl.edges), wantEdges)
	}
	// Block exit -> before the block's last instruction.
	foundBlockExit := false
	for _, p := range pl.instBefore {
		if b := prog.BlockContaining(p.addr); b != nil && b.Last().Addr == p.addr && len(b.Insts) > 3 {
			foundBlockExit = true
		}
	}
	if !foundBlockExit {
		t.Error("block exit not placed before terminator")
	}
}

func TestStaticActionConstraintFilters(t *testing.T) {
	prog := loadApp(t)
	pl, _, _ := instrument(t, `
basicblock B {
  uint64 loads = 0;
  inst I where (I.opcode == Load) {
    loads = loads + 1;
  }
  before B where (loads > 0) {
    print(loads);
  }
}
`, prog, true)
	// Only blocks containing loads get instrumented: head block and
	// helper's block.
	if len(pl.blockEntry) != 2 {
		t.Errorf("instrumented %d blocks, want 2", len(pl.blockEntry))
	}
}

func TestCaptureByValueAndGlobalSharing(t *testing.T) {
	prog := loadApp(t)
	pl, inst, out := instrument(t, `
uint64 total = 0;
basicblock B {
  uint64 local = B.ninsts;
  entry B {
    total = total + local;
  }
}
exit { print(total); }
`, prog, true)
	// Execute the placed actions by hand: each should add its block's
	// captured ninsts to the shared global.
	want := 0
	for _, p := range pl.blockEntry {
		p.action.Exec(nil)
		want += len(prog.BlockStarting(p.addr).Insts)
	}
	for _, fn := range pl.finis {
		fn()
	}
	if err := inst.Err(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != fmt.Sprintf("%d", want) {
		t.Errorf("total = %s, want %d", got, want)
	}
}

func TestCommandsMapInProgramOrder(t *testing.T) {
	prog := loadApp(t)
	pl, _, _ := instrument(t, `
inst I where (I.opcode == Load) {
  before I { print(1); }
}
inst J where (J.opcode == Load) {
  before J { print(2); }
}
`, prog, true)
	// Both commands target the same loads; placements must interleave
	// with the first command's action placed first at each address.
	byAddr := map[uint64][]*placement.Action{}
	var order []uint64
	for _, p := range pl.instBefore {
		if len(byAddr[p.addr]) == 0 {
			order = append(order, p.addr)
		}
		byAddr[p.addr] = append(byAddr[p.addr], p.action)
	}
	for _, addr := range order {
		if len(byAddr[addr]) != 2 {
			t.Errorf("%#x: %d actions, want 2", addr, len(byAddr[addr]))
		}
	}
}

func TestLoopCommandRejectedWithoutLoopSupport(t *testing.T) {
	prog := loadApp(t)
	tool, err := Compile(`loop L { entry L { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	pl := &recordingPlacer{prog: prog, modules: prog.Modules, loops: false}
	_, err = Instrument(tool, prog, pl, Options{})
	if err == nil || !strings.Contains(err.Error(), "no notion of loops") {
		t.Fatalf("err = %v", err)
	}
	// Nested loop commands are rejected too.
	tool, err = Compile(`func F { loop L { entry L { print(1); } } }`)
	if err != nil {
		t.Fatal(err)
	}
	pl = &recordingPlacer{prog: prog, modules: prog.Modules, loops: false}
	_, err = Instrument(tool, prog, pl, Options{})
	if err == nil {
		t.Fatal("nested loop command accepted")
	}
}

func TestModuleScoping(t *testing.T) {
	lib := `
.module libx
.global libfn
.func libfn
  load r4, [r5]
  ret
`
	mainSrc := `
.module app
.executable
.entry main
.extern libfn
.func main
  load r4, [r5]
  call libfn
  halt
`
	prog := loadApp(t, mainSrc, lib)
	// A placer restricted to the executable module must only see its
	// loads.
	tool, err := Compile(`inst I where (I.opcode == Load) { before I { print(1); } }`)
	if err != nil {
		t.Fatal(err)
	}
	pl := &recordingPlacer{prog: prog, modules: prog.Modules[:1], loops: true}
	if _, err := Instrument(tool, prog, pl, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(pl.instBefore) != 1 {
		t.Errorf("placed %d, want 1 (executable only)", len(pl.instBefore))
	}
	// Module commands bind module attributes.
	pl2 := &recordingPlacer{prog: prog, modules: prog.Modules, loops: true}
	tool2, err := Compile(`module M { print(M.name, M.nfuncs, M.isexecutable); }`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Instrument(tool2, prog, pl2, Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	want := "app 1 true\nlibx 1 false\n"
	if out.String() != want {
		t.Errorf("module analysis = %q, want %q", out.String(), want)
	}
}

func TestDynamicWhereCompilesToGuard(t *testing.T) {
	prog := loadApp(t)
	pl, inst, out := instrument(t, `
inst I where (I.opcode == Load) {
  before I where (I.memaddr > 100) {
    print("hit");
  }
}
`, prog, true)
	if len(pl.instBefore) != 2 {
		t.Fatalf("placements = %d", len(pl.instBefore))
	}
	a := pl.instBefore[0].action
	if len(a.DynAttrs) != 1 {
		t.Fatalf("dyn attrs = %v", a.DynAttrs)
	}
	// Guard false: no output. Guard true: output.
	a.Exec([]value.Value{value.UintVal(50)})
	if out.String() != "" {
		t.Error("guard did not suppress the body")
	}
	a.Exec([]value.Value{value.UintVal(500)})
	if strings.TrimSpace(out.String()) != "hit" {
		t.Errorf("guard true output = %q", out.String())
	}
	if inst.Err() != nil {
		t.Fatal(inst.Err())
	}
}

func TestActionRuntimeErrorsAreRecorded(t *testing.T) {
	prog := loadApp(t)
	pl, inst, _ := instrument(t, `
int zero = 0;
inst I where (I.opcode == Load) {
  before I {
    print(1 / zero);
  }
}
`, prog, true)
	pl.instBefore[0].action.Exec(nil)
	if err := inst.Err(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("inst I {"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Compile("inst I { before J { } }"); err == nil {
		t.Error("semantic error not surfaced")
	}
}

// TestFilteredInstancesAllocateNothing pins the compiled walk's cost per
// CFE instance that a command's where clause filters out: no allocation.
// BuildTemplate of a tool whose command constraints never hold — an
// opcode disjunction with a static attribute compared to an outer
// analysis local in a nested command, and a block-size bound — allocates
// no more on a program eight times the size.
func TestFilteredInstancesAllocateNothing(t *testing.T) {
	tool, err := Compile(`
uint64 n = 0;
func F {
  uint64 k = F.ninsts;
  inst I where ((I.opcode == Halt || I.opcode == Nop) && I.size > k) {
    before I { n = n + 1; }
  }
}
basicblock B where (B.ninsts > 1000000) {
  entry B { n = n + 1; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(loads int) float64 {
		prog := loadApp(t, ".module app\n.executable\n.entry main\n.func main\n"+strings.Repeat("  load r4, [r5]\n", loads)+"  halt\n")
		pl := &recordingPlacer{prog: prog, modules: prog.Modules}
		return testing.AllocsPerRun(20, func() {
			if _, err := BuildTemplate(tool, prog, pl, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(128); large > small {
		t.Errorf("BuildTemplate made %.0f allocations on 129 instructions and %.0f on 17: filtered instances allocate", large, small)
	}
}
