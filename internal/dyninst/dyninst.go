// Package dyninst is a clean-room, Go reimplementation of the programming
// model of Dyninst's static binary rewriting mode (the BPatch API). It is
// one of the three backend substrates the Cinnamon compiler targets.
//
// The API mirrors the BPatch surface: open a binary for editing, look up
// functions and instrumentation points through the image, build snippet
// ASTs (BPatch_funcCallExpr, BPatch_effectiveAddressExpr, BPatch_retExpr,
// BPatch_paramExpr, ...), and insert them at points. Like real Dyninst
// used as a static rewriter:
//
//   - only the opened binary (the main executable image) is instrumented —
//     shared-library code runs uninstrumented, so counts miss it;
//   - instrumentation is baked in ahead of execution via trampolines, so
//     there is no JIT translation cost at run time (Dyninst has the
//     cheapest dispatch of the three frameworks in Figure 13);
//   - binaries whose control flow cannot be fully recovered (unresolvable
//     indirect jumps) are rejected at parse time, reproducing the SPEC
//     benchmarks the paper could not run under Dyninst.
package dyninst

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Dispatch cost model (cycle units). A snippet trampoline redirects
// control and spills only the registers the snippet needs, which is
// cheaper than a dynamic framework's clean call.
const (
	// SnippetCost is charged per snippet invocation (trampoline in/out).
	SnippetCost = 12
	// ArgEvalCost is charged per snippet-expression operand evaluated.
	ArgEvalCost = 2
)

// CallWhen selects before/after placement at an instruction point
// (BPatch_callWhen).
type CallWhen int

// Placement relative to a point.
const (
	CallBefore CallWhen = iota
	CallAfter
)

// ProcedureLocation selects a class of points within a function
// (BPatch_procedureLocation).
type ProcedureLocation int

// Point classes.
const (
	// Entry is the function entry point (BPatch_entry).
	Entry ProcedureLocation = iota
	// Exit covers every return of the function (BPatch_exit).
	Exit
	// Subroutine covers every call site in the function
	// (BPatch_subroutine).
	Subroutine
)

// Snippet is a node of the snippet AST (BPatch_snippet). Snippets are
// evaluated in the application's context when their point is reached.
type Snippet interface {
	eval(c *vm.Ctx) uint64
	cost() uint64
}

// ConstExpr is a constant operand (BPatch_constExpr).
type ConstExpr struct{ Val uint64 }

func (e ConstExpr) eval(*vm.Ctx) uint64 { return e.Val }
func (e ConstExpr) cost() uint64        { return ArgEvalCost }

// EffectiveAddressExpr evaluates to the effective address of the point
// instruction's memory operand (BPatch_effectiveAddressExpr).
type EffectiveAddressExpr struct{}

func (EffectiveAddressExpr) eval(c *vm.Ctx) uint64 { v, _ := c.MemAddr(); return v }
func (EffectiveAddressExpr) cost() uint64          { return ArgEvalCost }

// RetExpr evaluates to the function return value (BPatch_retExpr).
type RetExpr struct{}

func (RetExpr) eval(c *vm.Ctx) uint64 { return c.RetVal() }
func (RetExpr) cost() uint64          { return ArgEvalCost }

// ParamExpr evaluates to the n-th (1-based) call argument
// (BPatch_paramExpr).
type ParamExpr struct{ N int }

func (e ParamExpr) eval(c *vm.Ctx) uint64 { return c.CallArg(e.N) }
func (e ParamExpr) cost() uint64          { return ArgEvalCost }

// BranchTargetExpr evaluates to the resolved control-transfer target of
// the point instruction (for returns, the address about to be popped).
type BranchTargetExpr struct{}

func (BranchTargetExpr) eval(c *vm.Ctx) uint64 { v, _ := c.Target(); return v }
func (BranchTargetExpr) cost() uint64          { return ArgEvalCost }

// InstAddrExpr evaluates to the address of the point instruction
// (BPatch_originalAddressExpr).
type InstAddrExpr struct{}

func (InstAddrExpr) eval(c *vm.Ctx) uint64 {
	if in := c.Inst(); in != nil {
		return in.Addr
	}
	return 0
}
func (InstAddrExpr) cost() uint64 { return ArgEvalCost }

// RegExpr evaluates to the value of a machine register
// (BPatch_registerExpr).
type RegExpr struct{ Reg isa.Reg }

func (e RegExpr) eval(c *vm.Ctx) uint64 { return c.Reg(e.Reg) }
func (e RegExpr) cost() uint64          { return ArgEvalCost }

// FuncCallExpr calls an instrumentation function with evaluated arguments
// (BPatch_funcCallExpr). Cost is the callee body's work in cycle units.
type FuncCallExpr struct {
	Fn   func(args []uint64)
	Args []Snippet
	Cost uint64
	// Label identifies the call in observability reports (optional; the
	// Cinnamon backend sets it to the originating action).
	Label string
	// Pure asserts that Fn meets the vm.Probe purity contract (never
	// inserts snippets, never reads cycle counts). When the call is a
	// whole inserted snippet, the rewriter hands each insertion to the
	// VM's action-inlining layer, which may fuse it into translated
	// blocks (vm.Probe.Pure).
	Pure bool
	// CounterFlush, when non-nil, asserts that n invocations of the
	// call — for any argument values — are equivalent in all
	// observables to CounterFlush(n); it implies Pure. Such snippets are
	// promoted to counters by the inline tier (vm.Probe.Flush).
	CounterFlush func(n int64)
	// Sample, when > 1, arms each insertion of the snippet with a
	// sampling countdown baked into the trampoline: the call fires on
	// every Sample-th hit of that placement; swallowed hits cost only the
	// inlined gate (see vm.SampleGateCost).
	Sample uint64
	// Merged, when non-nil, marks a coalesced call: Fn (and its inline
	// surface) describe the fused execution of the constituent
	// snippets, while each Part is registered and attributed
	// separately — one report row per constituent, one trampoline
	// dispatch per part. Merged calls take no argument snippets and
	// are never sampled.
	Merged []Part
}

// Part is one constituent of a merged function-call snippet.
type Part struct {
	// Label identifies the constituent in observability reports.
	Label string
	// Cost is the constituent's body cost; its dispatch price is
	// SnippetCost plus this.
	Cost uint64
}

func (e FuncCallExpr) eval(c *vm.Ctx) uint64 {
	args := make([]uint64, len(e.Args))
	for n, a := range e.Args {
		args[n] = a.eval(c)
	}
	e.Fn(args)
	return 0
}

func (e FuncCallExpr) cost() uint64 {
	total := e.Cost
	for _, a := range e.Args {
		total += a.cost()
	}
	return total
}

// SequenceExpr evaluates snippets in order (BPatch_sequence).
type SequenceExpr struct{ Items []Snippet }

func (e SequenceExpr) eval(c *vm.Ctx) uint64 {
	var v uint64
	for _, it := range e.Items {
		v = it.eval(c)
	}
	return v
}

func (e SequenceExpr) cost() uint64 {
	var total uint64
	for _, it := range e.Items {
		total += it.cost()
	}
	return total
}

// Point is an instrumentation point (BPatch_point).
type Point struct {
	be *BinaryEdit
	// one of:
	instAddr  uint64 // instruction point (0 if not)
	blockAddr uint64 // block-entry point
	edge      [2]uint64
	isEdge    bool
}

// Loop is a natural loop handle (BPatch_basicBlockLoop).
type Loop struct {
	be   *BinaryEdit
	loop *cfg.Loop
}

// ID returns the loop's stable identifier.
func (l *Loop) ID() int { return l.loop.ID }

// EntryPoints returns points that fire when the loop is entered from
// outside.
func (l *Loop) EntryPoints() []*Point { return l.be.edgePoints(l.loop.Entries) }

// ExitPoints returns points that fire when the loop is left.
func (l *Loop) ExitPoints() []*Point { return l.be.edgePoints(l.loop.Exits) }

// IterPoints returns points that fire on each back-edge traversal.
func (l *Loop) IterPoints() []*Point { return l.be.edgePoints(l.loop.Backs) }

// BasicBlock is a basic-block handle (BPatch_basicBlock).
type BasicBlock struct {
	be    *BinaryEdit
	block *cfg.Block
}

// Address returns the block start address.
func (b *BasicBlock) Address() uint64 { return b.block.Start }

// Block exposes the underlying CFG block.
func (b *BasicBlock) Block() *cfg.Block { return b.block }

// EntryPoint returns the block-entry instrumentation point.
func (b *BasicBlock) EntryPoint() *Point {
	return &Point{be: b.be, blockAddr: b.block.Start}
}

// InstPoints returns one instruction point per instruction in the block.
func (b *BasicBlock) InstPoints() []*Point {
	out := make([]*Point, 0, len(b.block.Insts))
	for _, in := range b.block.Insts {
		out = append(out, &Point{be: b.be, instAddr: in.Addr})
	}
	return out
}

// Instructions returns the block's decoded instructions.
func (b *BasicBlock) Instructions() []*isa.Inst { return b.block.Insts }

// Function is a function handle (BPatch_function).
type Function struct {
	be *BinaryEdit
	fn *cfg.Func
}

// Name returns the function's symbol name.
func (f *Function) Name() string { return f.fn.Name }

// Address returns the function entry address.
func (f *Function) Address() uint64 { return f.fn.Entry }

// Func exposes the underlying CFG function.
func (f *Function) Func() *cfg.Func { return f.fn }

// FindPoint returns the function's points of the given class.
func (f *Function) FindPoint(loc ProcedureLocation) ([]*Point, error) {
	switch loc {
	case Entry:
		if len(f.fn.Blocks) == 0 {
			return nil, fmt.Errorf("dyninst: function %s has no code", f.fn.Name)
		}
		return []*Point{{be: f.be, blockAddr: f.fn.Blocks[0].Start}}, nil
	case Exit:
		var pts []*Point
		for _, b := range f.fn.Blocks {
			if b.Last().Op == isa.Return {
				pts = append(pts, &Point{be: f.be, instAddr: b.Last().Addr})
			}
		}
		return pts, nil
	case Subroutine:
		var pts []*Point
		for _, b := range f.fn.Blocks {
			for _, in := range b.Insts {
				if in.Op == isa.Call {
					pts = append(pts, &Point{be: f.be, instAddr: in.Addr})
				}
			}
		}
		return pts, nil
	}
	return nil, fmt.Errorf("dyninst: unknown point class %d", loc)
}

// Loops returns the function's natural loops.
func (f *Function) Loops() []*Loop {
	out := make([]*Loop, 0, len(f.fn.Loops))
	for _, l := range f.fn.Loops {
		out = append(out, &Loop{be: f.be, loop: l})
	}
	return out
}

// Blocks returns the function's basic blocks.
func (f *Function) Blocks() []*BasicBlock {
	out := make([]*BasicBlock, 0, len(f.fn.Blocks))
	for _, b := range f.fn.Blocks {
		out = append(out, &BasicBlock{be: f.be, block: b})
	}
	return out
}

// Image is the parsed view of the opened binary (BPatch_image). It covers
// only the main executable module — the rewriter does not touch shared
// libraries.
type Image struct {
	be *BinaryEdit
}

// FindFunction looks up a function by name in the executable image.
func (img *Image) FindFunction(name string) (*Function, error) {
	for _, f := range img.be.exe.Funcs {
		if f.Name == name {
			return &Function{be: img.be, fn: f}, nil
		}
	}
	return nil, fmt.Errorf("dyninst: function %q not found", name)
}

// Functions returns every function in the executable image.
func (img *Image) Functions() []*Function {
	out := make([]*Function, 0, len(img.be.exe.Funcs))
	for _, f := range img.be.exe.Funcs {
		out = append(out, &Function{be: img.be, fn: f})
	}
	return out
}

// InstPoint returns the instruction point at an address within the image.
func (img *Image) InstPoint(addr uint64) (*Point, error) {
	if img.be.prog.InstAt(addr) == nil {
		return nil, fmt.Errorf("dyninst: no instruction at %#x", addr)
	}
	return &Point{be: img.be, instAddr: addr}, nil
}

// BlockEntryPoint returns the entry point of the basic block starting at
// addr.
func (img *Image) BlockEntryPoint(addr uint64) (*Point, error) {
	if img.be.prog.BlockStarting(addr) == nil {
		return nil, fmt.Errorf("dyninst: no basic block starting at %#x", addr)
	}
	return &Point{be: img.be, blockAddr: addr}, nil
}

// CalledFunctionName returns the symbol name of the function (or runtime
// import) called by the direct call instruction at addr, or "" if the
// instruction is not a direct call or the target is unnamed
// (BPatch_point::getCalledFunction).
func (img *Image) CalledFunctionName(addr uint64) string {
	in := img.be.prog.InstAt(addr)
	if in == nil || in.Op != isa.Call {
		return ""
	}
	if tgt, ok := in.IsDirectTarget(); ok {
		return img.be.prog.Obj.NameAt(tgt)
	}
	return ""
}

// EdgePoint returns the point on the CFG edge between the blocks starting
// at from and to.
func (img *Image) EdgePoint(from, to uint64) (*Point, error) {
	if img.be.prog.BlockStarting(from) == nil || img.be.prog.BlockStarting(to) == nil {
		return nil, fmt.Errorf("dyninst: no CFG edge %#x -> %#x", from, to)
	}
	return &Point{be: img.be, isEdge: true, edge: [2]uint64{from, to}}, nil
}

type insertion struct {
	point   *Point
	when    CallWhen
	snippet Snippet
}

// BinaryEdit is an open-for-rewriting binary (BPatch_binaryEdit).
type BinaryEdit struct {
	prog       *cfg.Program
	exe        *cfg.Module
	insertions []insertion
	// machine configures the machine the rewritten binary runs on.
	machine vm.Config
	initFns []func()
	finiFns []func()
}

// OpenBinary parses the program's executable for rewriting; Run executes
// the rewritten binary on a machine configured by c (c.OnMachine sees the
// machine before the insertions are baked in). It fails, like real
// Dyninst on several SPEC benchmarks, when control-flow recovery is
// incomplete (unresolvable indirect jumps).
func OpenBinary(prog *cfg.Program, c vm.Config) (*BinaryEdit, error) {
	exe := prog.Modules[0]
	if exe.Loaded.HasUnrecoverableControlFlow() {
		return nil, fmt.Errorf("dyninst: %s: control-flow recovery failed (unresolvable indirect jumps)", exe.Name())
	}
	for _, f := range exe.Funcs {
		if f.Imprecise {
			return nil, fmt.Errorf("dyninst: %s: imprecise control flow in %s", exe.Name(), f.Name)
		}
	}
	return &BinaryEdit{prog: prog, exe: exe, machine: c}, nil
}

// Image returns the parsed image.
func (be *BinaryEdit) Image() *Image { return &Image{be: be} }

func (be *BinaryEdit) edgePoints(edges []cfg.Edge) []*Point {
	out := make([]*Point, 0, len(edges))
	for _, e := range edges {
		out = append(out, &Point{be: be, isEdge: true, edge: [2]uint64{e.From.Start, e.To.Start}})
	}
	return out
}

// InsertSnippet records a snippet insertion at a point
// (BPatch_binaryEdit::insertSnippet). The rewrite is applied when Run
// writes out and executes the instrumented binary.
func (be *BinaryEdit) InsertSnippet(s Snippet, p *Point, when CallWhen) error {
	if p == nil {
		return fmt.Errorf("dyninst: nil point")
	}
	if p.instAddr == 0 && when == CallAfter {
		return fmt.Errorf("dyninst: callAfter is only valid at instruction points")
	}
	be.insertions = append(be.insertions, insertion{point: p, when: when, snippet: s})
	return nil
}

// OnInit registers a callback run before the rewritten binary starts
// (instrumented _init).
func (be *BinaryEdit) OnInit(fn func()) { be.initFns = append(be.initFns, fn) }

// OnFini registers a callback run after the rewritten binary exits
// (instrumented _fini).
func (be *BinaryEdit) OnFini(fn func()) { be.finiFns = append(be.finiFns, fn) }

// probe builds the machine probe for one insertion of the snippet. A
// bare FuncCallExpr gets one call with its inline surface and one
// argument buffer, reused across firings (probes of one machine fire
// sequentially); any other snippet is evaluated as a tree.
func probe(s Snippet) vm.Probe {
	e, ok := s.(FuncCallExpr)
	if !ok {
		return vm.Probe{Fn: func(c *vm.Ctx) { s.eval(c) }}
	}
	args := make([]uint64, len(e.Args))
	return vm.Probe{Fn: func(c *vm.Ctx) {
		for n, a := range e.Args {
			args[n] = a.eval(c)
		}
		e.Fn(args)
	}, Pure: e.Pure, Flush: e.CounterFlush}
}

// snippetLabel extracts the report label of a snippet: the Label of the
// first FuncCallExpr found ("" for pure expression snippets).
func snippetLabel(s Snippet) string {
	switch e := s.(type) {
	case FuncCallExpr:
		return e.Label
	case SequenceExpr:
		for _, it := range e.Items {
			if l := snippetLabel(it); l != "" {
				return l
			}
		}
	}
	return ""
}

// snippetSample extracts the sampling stride of a snippet: the Sample of
// the first FuncCallExpr found (0 for pure expression snippets).
func snippetSample(s Snippet) uint64 {
	switch e := s.(type) {
	case FuncCallExpr:
		return e.Sample
	case SequenceExpr:
		for _, it := range e.Items {
			if n := snippetSample(it); n != 0 {
				return n
			}
		}
	}
	return 0
}

// Run "writes out" the rewritten binary and executes it: all insertions
// are baked in before the first instruction runs, and no translation cost
// is paid at run time.
func (be *BinaryEdit) Run() (*vm.Result, error) {
	machine := vm.New(be.prog, be.machine)
	col := be.machine.Obs
	// register records one trampoline with the attached collector.
	register := func(label, trigger string, addr, cost uint64) obs.ProbeID {
		if col == nil {
			return obs.NoProbe
		}
		col.MutateBuild(func(b *obs.BuildStats) { b.Snippets++ })
		return col.RegisterProbe(obs.ProbeMeta{
			Label:        label,
			Trigger:      trigger,
			Mechanism:    obs.MechSnippet,
			Addr:         addr,
			DispatchCost: cost,
		})
	}
	for _, ins := range be.insertions {
		s := ins.snippet
		pr := probe(s)
		var site vm.Site
		var trigger string
		switch {
		case ins.point.isEdge:
			site, trigger = vm.Site{When: vm.AtEdge, Addr: ins.point.edge[1], From: ins.point.edge[0]}, obs.TriggerEdge
		case ins.point.blockAddr != 0:
			site, trigger = vm.Site{When: vm.AtBlockEntry, Addr: ins.point.blockAddr}, obs.TriggerBlockEntry
		case ins.when == CallBefore:
			site, trigger = vm.Site{When: vm.BeforeInst, Addr: ins.point.instAddr}, obs.TriggerBefore
		default:
			site, trigger = vm.Site{When: vm.AfterInst, Addr: ins.point.instAddr}, obs.TriggerAfter
		}
		if e, ok := s.(FuncCallExpr); ok && len(e.Merged) > 0 {
			// Coalesced call: one trampoline, one attribution row per
			// constituent part.
			pr.Shares = make([]vm.Share, len(e.Merged))
			for i, part := range e.Merged {
				pc := uint64(SnippetCost) + part.Cost
				pr.Shares[i] = vm.Share{ID: register(part.Label, trigger, site.Addr, pc), Cost: pc}
			}
		} else {
			pr.Cost = SnippetCost + s.cost()
			pr.ID = register(snippetLabel(s), trigger, site.Addr, pr.Cost)
			pr.Stride = snippetSample(s)
		}
		if err := machine.Add(site, pr); err != nil {
			return nil, fmt.Errorf("dyninst: %w", err)
		}
	}
	for _, fn := range be.initFns {
		fn := fn
		machine.OnStart(func(*vm.Ctx) { fn() })
	}
	for _, fn := range be.finiFns {
		fn := fn
		machine.OnEnd(func(*vm.Ctx) { fn() })
	}
	return machine.Run()
}
