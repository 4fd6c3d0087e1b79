// Package pin is a clean-room, Go reimplementation of the programming
// model of Intel Pin: a purely dynamic, just-in-time binary
// instrumentation framework. It is one of the three backend substrates the
// Cinnamon compiler targets.
//
// The API mirrors Pin's C++ surface closely enough that tools written
// against it have the same shape (and verbosity) as real Pin tools:
// instrumentation callbacks are registered per granularity
// (INS/TRACE/RTN/IMG), run at JIT time when code is first executed, and
// insert calls to analysis routines with IARG-style argument descriptors.
//
// Fidelity notes, matching the paper's description of Pin:
//
//   - Instrumentation is dynamic: Pin sees *all* executed code, including
//     shared-library modules (this is why Pin's instruction counts exceed
//     the static backends' in Figure 12).
//   - Routine and image modes work ahead of time from symbol information.
//   - Pin has no notion of loops; there is deliberately no loop API.
//   - Analysis calls are priced with Pin's cost model: short, simple
//     routines registered as inlinable get the cheap dispatch that Pin's
//     automatic inlining provides; everything else pays the clean-call
//     (context-switch) price.
package pin

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Dispatch cost model (cycle units; see internal/vm/cost.go for the
// scale). A clean call spills and restores machine context around the
// analysis routine; an inlined analysis routine costs a fraction of that.
const (
	// CleanCallCost is charged per analysis-routine invocation inserted
	// as a clean call.
	CleanCallCost = 26
	// InlinedCallCost is charged when Pin can inline the analysis
	// routine into the code cache.
	InlinedCallCost = 14
	// ArgCost is charged per IARG materialized for an analysis call.
	ArgCost = 3
	// TraceCost is the one-time JIT cost of translating a trace (basic
	// block), charged on first execution whether or not a tool is
	// attached.
	TraceCost = 400
)

// IPoint selects where an analysis call is inserted relative to the
// instrumented object.
type IPoint int

// Insertion points.
const (
	IPointBefore IPoint = iota
	// IPointAfter fires after the instruction; on calls it fires at the
	// fall-through, once the callee has returned.
	IPointAfter
)

// ArgKind enumerates IARG-style analysis-call argument descriptors.
type ArgKind int

// Argument kinds.
const (
	// ArgInstPtr passes the instrumented instruction's address
	// (IARG_INST_PTR).
	ArgInstPtr ArgKind = iota
	// ArgMemoryEA passes the effective address of the instruction's
	// memory operand (IARG_MEMORYREAD_EA / IARG_MEMORYWRITE_EA).
	ArgMemoryEA
	// ArgRegValue passes the current value of a register
	// (IARG_REG_VALUE).
	ArgRegValue
	// ArgFuncArg passes the n-th function-call argument
	// (IARG_FUNCARG_ENTRYPOINT_VALUE).
	ArgFuncArg
	// ArgRetVal passes the function return value
	// (IARG_FUNCRET_EXITPOINT_VALUE); only meaningful at IPointAfter of
	// a call or at routine exit.
	ArgRetVal
	// ArgBranchTarget passes the resolved control-transfer target
	// (IARG_BRANCH_TARGET_ADDR); for returns this is the address about
	// to be popped.
	ArgBranchTarget
	// ArgFallthrough passes the address following the instruction
	// (IARG_FALLTHROUGH_ADDR).
	ArgFallthrough
	// ArgConst passes a fixed value (IARG_ADDRINT / IARG_UINT64).
	ArgConst
)

// Arg is an analysis-call argument descriptor.
type Arg struct {
	Kind ArgKind
	Reg  isa.Reg // ArgRegValue
	N    int     // ArgFuncArg (1-based)
	Val  uint64  // ArgConst
}

// InstPtr returns an IARG_INST_PTR descriptor.
func InstPtr() Arg { return Arg{Kind: ArgInstPtr} }

// MemoryEA returns an IARG_MEMORY*_EA descriptor.
func MemoryEA() Arg { return Arg{Kind: ArgMemoryEA} }

// RegValue returns an IARG_REG_VALUE descriptor.
func RegValue(r isa.Reg) Arg { return Arg{Kind: ArgRegValue, Reg: r} }

// FuncArg returns an IARG_FUNCARG_ENTRYPOINT_VALUE descriptor for the
// n-th (1-based) call argument.
func FuncArg(n int) Arg { return Arg{Kind: ArgFuncArg, N: n} }

// RetVal returns an IARG_FUNCRET_EXITPOINT_VALUE descriptor.
func RetVal() Arg { return Arg{Kind: ArgRetVal} }

// BranchTarget returns an IARG_BRANCH_TARGET_ADDR descriptor.
func BranchTarget() Arg { return Arg{Kind: ArgBranchTarget} }

// Fallthrough returns an IARG_FALLTHROUGH_ADDR descriptor.
func Fallthrough() Arg { return Arg{Kind: ArgFallthrough} }

// Const returns an IARG_UINT64 descriptor with a fixed value.
func Const(v uint64) Arg { return Arg{Kind: ArgConst, Val: v} }

// AnalysisFn is an analysis routine; it receives the materialized argument
// values in descriptor order.
type AnalysisFn func(args []uint64)

// Routine bundles an analysis function with its cost properties. Cost is
// the routine body's work in cycle units; Inlinable marks routines simple
// enough for Pin's automatic inlining (no calls, short, branch-free) —
// hand-written native analysis routines typically qualify, while generated
// callback encapsulations do not, which is the root of the Cinnamon
// overhead measured in Figure 13.
type Routine struct {
	Fn        AnalysisFn
	Cost      uint64
	Inlinable bool
	// Label identifies the routine in observability reports (optional;
	// the Cinnamon backend sets it to the originating action).
	Label string
	// Pure asserts that Fn meets the vm.Probe purity contract (never
	// inserts calls, never reads cycle counts), so the VM's
	// action-inlining layer may fuse each insertion into translated
	// blocks (vm.Probe.Pure).
	Pure bool
	// CounterFlush, when non-nil, asserts that n invocations of the
	// routine — for any argument values — are equivalent in all
	// observables to CounterFlush(n); it implies Pure. Such routines are
	// promoted to counters by the inline tier (vm.Probe.Flush).
	CounterFlush func(n int64)
	// Sample, when > 1, arms each insertion of the routine with a
	// sampling countdown: the call fires on every Sample-th hit of that
	// placement; swallowed hits cost only the inlined gate (see
	// vm.SampleGateCost).
	Sample uint64
	// Merged, when non-nil, marks a coalesced routine: Fn (and its
	// inline surface) describe the fused execution of the constituent
	// analysis calls, while each Part is registered and attributed
	// separately — one report row per constituent, dispatch priced
	// per part. Merged routines take no argument descriptors and are
	// never sampled.
	Merged []Part
}

// Part is one constituent of a merged analysis routine.
type Part struct {
	// Label identifies the constituent in observability reports.
	Label string
	// Cost is the constituent's body cost; its dispatch price is the
	// routine's clean-call/inlined base plus this.
	Cost uint64
}

func (r Routine) mechanism() string {
	if r.Inlinable {
		return obs.MechInlinedCall
	}
	return obs.MechCleanCall
}

func (r Routine) dispatchCost() uint64 {
	if r.Inlinable {
		return InlinedCallCost + r.Cost
	}
	return CleanCallCost + r.Cost
}

// INS is an instruction handle passed to instruction-mode instrumentation
// callbacks.
type INS struct {
	pin  *Pin
	inst *isa.Inst
}

// Address returns the instruction address.
func (i INS) Address() uint64 { return i.inst.Addr }

// Inst exposes the decoded instruction.
func (i INS) Inst() *isa.Inst { return i.inst }

// Opcode returns the instruction opcode.
func (i INS) Opcode() isa.Op { return i.inst.Op }

// IsMemoryRead reports whether the instruction reads memory.
func (i INS) IsMemoryRead() bool { return i.inst.Op == isa.Load }

// IsMemoryWrite reports whether the instruction writes memory.
func (i INS) IsMemoryWrite() bool { return i.inst.Op == isa.Store }

// IsCall reports whether the instruction is a call.
func (i INS) IsCall() bool { return i.inst.Op == isa.Call }

// IsRet reports whether the instruction is a return.
func (i INS) IsRet() bool { return i.inst.Op == isa.Return }

// IsBranch reports whether the instruction is a branch.
func (i INS) IsBranch() bool { return i.inst.Op == isa.Branch }

// IsIndirect reports whether the instruction is an indirect control
// transfer.
func (i INS) IsIndirect() bool { return i.inst.IsIndirect() }

// DirectTargetName returns the symbol name of a direct call/branch target
// ("" if indirect or unnamed). Symbolic information is available to Pin at
// instrumentation time.
func (i INS) DirectTargetName() string {
	if tgt, ok := i.inst.IsDirectTarget(); ok {
		return i.pin.prog.Obj.NameAt(tgt)
	}
	return ""
}

// InsertCall inserts an analysis call at the given point of this
// instruction. Args are materialized per invocation. An error is returned
// for placements the framework cannot honour (e.g. IPointAfter on a
// branch).
func (i INS) InsertCall(point IPoint, r Routine, args ...Arg) error {
	return i.pin.insertCall(i.inst, point, r, args)
}

// BBL is a basic-block handle within a trace.
type BBL struct {
	pin   *Pin
	block *cfg.Block
}

// Address returns the block's start address.
func (b BBL) Address() uint64 { return b.block.Start }

// NumIns returns the number of instructions in the block.
func (b BBL) NumIns() int { return len(b.block.Insts) }

// Ins returns the block's instructions as INS handles.
func (b BBL) Ins() []INS {
	out := make([]INS, len(b.block.Insts))
	for n, in := range b.block.Insts {
		out[n] = INS{pin: b.pin, inst: in}
	}
	return out
}

// InsertCall inserts an analysis call at the entry of this block
// (BBL_InsertCall with IPOINT_BEFORE).
func (b BBL) InsertCall(r Routine, args ...Arg) error {
	return b.pin.insertBlockCall(b.block, r, args)
}

// TRACE is a single-entry code region presented to trace-mode
// instrumentation; in this implementation a trace is one basic block.
type TRACE struct {
	pin   *Pin
	block *cfg.Block
}

// BBLs returns the trace's basic blocks.
func (t TRACE) BBLs() []BBL { return []BBL{{pin: t.pin, block: t.block}} }

// Address returns the trace's start address.
func (t TRACE) Address() uint64 { return t.block.Start }

// RTN is a routine (function) handle, available ahead of time from
// symbolic information.
type RTN struct {
	pin *Pin
	fn  *cfg.Func
}

// Name returns the routine name.
func (r RTN) Name() string { return r.fn.Name }

// Address returns the routine entry address.
func (r RTN) Address() uint64 { return r.fn.Entry }

// InsertCallEntry inserts an analysis call at routine entry.
func (r RTN) InsertCallEntry(routine Routine, args ...Arg) error {
	return r.pin.insertBlockCall(r.fn.Blocks[0], routine, args)
}

// InsertCallExit inserts an analysis call before every return of the
// routine.
func (r RTN) InsertCallExit(routine Routine, args ...Arg) error {
	for _, b := range r.fn.Blocks {
		if last := b.Last(); last.Op == isa.Return {
			if err := r.pin.insertCall(last, IPointBefore, routine, args); err != nil {
				return err
			}
		}
	}
	return nil
}

// IMG is an image (module) handle.
type IMG struct {
	pin *Pin
	mod *cfg.Module
}

// Name returns the image name.
func (i IMG) Name() string { return i.mod.Name() }

// IsMainExecutable reports whether this is the main program image.
func (i IMG) IsMainExecutable() bool { return i.mod.ID == 0 }

// RTNs returns the image's routines.
func (i IMG) RTNs() []RTN {
	out := make([]RTN, 0, len(i.mod.Funcs))
	for _, f := range i.mod.Funcs {
		out = append(out, RTN{pin: i.pin, fn: f})
	}
	return out
}

// Pin is one instrumentation session: a program plus an attached tool.
// Mirroring real Pin, the lifecycle is: create, register instrumentation
// and fini callbacks, then Run.
type Pin struct {
	prog *cfg.Program
	vm   *vm.VM
	obs  *obs.Collector

	insCbs   []func(INS)
	traceCbs []func(TRACE)
	rtnCbs   []func(RTN)
	imgCbs   []func(IMG)
	finiCbs  []func()

	runErr error
}

// New creates a Pin session for the program, running it on a machine
// configured by c (c.OnMachine sees the machine before any
// instrumentation is installed).
func New(prog *cfg.Program, c vm.Config) *Pin {
	return &Pin{prog: prog, vm: vm.New(prog, c), obs: c.Obs}
}

// VM exposes the underlying machine (for tools that need raw memory
// access, e.g. taint or allocation tracking).
func (p *Pin) VM() *vm.VM { return p.vm }

// INSAddInstrumentFunction registers an instruction-mode instrumentation
// callback (INS_AddInstrumentFunction).
func (p *Pin) INSAddInstrumentFunction(fn func(INS)) { p.insCbs = append(p.insCbs, fn) }

// TraceAddInstrumentFunction registers a trace-mode instrumentation
// callback (TRACE_AddInstrumentFunction).
func (p *Pin) TraceAddInstrumentFunction(fn func(TRACE)) { p.traceCbs = append(p.traceCbs, fn) }

// RTNAddInstrumentFunction registers a routine-mode instrumentation
// callback (RTN_AddInstrumentFunction). Routine mode works ahead of time
// from symbols.
func (p *Pin) RTNAddInstrumentFunction(fn func(RTN)) { p.rtnCbs = append(p.rtnCbs, fn) }

// IMGAddInstrumentFunction registers an image-load callback
// (IMG_AddInstrumentFunction).
func (p *Pin) IMGAddInstrumentFunction(fn func(IMG)) { p.imgCbs = append(p.imgCbs, fn) }

// AddFiniFunction registers a callback run when the application exits
// (PIN_AddFiniFunction).
func (p *Pin) AddFiniFunction(fn func()) { p.finiCbs = append(p.finiCbs, fn) }

func (p *Pin) materialize(c *vm.Ctx, args []Arg, buf []uint64) []uint64 {
	for _, a := range args {
		var v uint64
		switch a.Kind {
		case ArgInstPtr:
			if in := c.Inst(); in != nil {
				v = in.Addr
			}
		case ArgMemoryEA:
			v, _ = c.MemAddr()
		case ArgRegValue:
			v = c.Reg(a.Reg)
		case ArgFuncArg:
			v = c.CallArg(a.N)
		case ArgRetVal:
			v = c.RetVal()
		case ArgBranchTarget:
			v, _ = c.Target()
		case ArgFallthrough:
			v = c.FallAddr()
		case ArgConst:
			v = a.Val
		}
		buf = append(buf, v)
	}
	return buf
}

// register records one inserted analysis call with the attached
// collector (cold path: instrumentation time only) and returns the probe
// ID the VM should attribute firings to.
func (p *Pin) register(r Routine, trigger string, addr, cost uint64) obs.ProbeID {
	if p.obs == nil {
		return obs.NoProbe
	}
	p.obs.MutateBuild(func(b *obs.BuildStats) {
		if r.Inlinable {
			b.InlinedCalls++
		} else {
			b.CleanCalls++
		}
	})
	return p.obs.RegisterProbe(obs.ProbeMeta{
		Label:        r.Label,
		Trigger:      trigger,
		Mechanism:    r.mechanism(),
		Addr:         addr,
		DispatchCost: cost,
	})
}

// analysisCall wraps one inserted analysis call: the argument buffer is
// allocated once per insertion and reused across firings (probes of one
// machine fire sequentially), so steady-state dispatch allocates nothing.
func (p *Pin) analysisCall(fn AnalysisFn, args []Arg) vm.ProbeFn {
	buf := make([]uint64, 0, 4)
	return func(c *vm.Ctx) {
		buf = p.materialize(c, args, buf[:0])
		fn(buf)
	}
}

// mergedShares registers each constituent of a merged routine and
// returns the attribution shares for the one fused probe.
func (p *Pin) mergedShares(r Routine, trigger string, addr uint64) []vm.Share {
	base := uint64(CleanCallCost)
	if r.Inlinable {
		base = InlinedCallCost
	}
	shares := make([]vm.Share, len(r.Merged))
	for i, part := range r.Merged {
		pc := base + part.Cost
		pr := Routine{Label: part.Label, Cost: part.Cost, Inlinable: r.Inlinable}
		shares[i] = vm.Share{ID: p.register(pr, trigger, addr, pc), Cost: pc}
	}
	return shares
}

func (p *Pin) insertCall(inst *isa.Inst, point IPoint, r Routine, args []Arg) error {
	switch point {
	case IPointBefore:
		return p.vm.Add(vm.Site{When: vm.BeforeInst, Addr: inst.Addr}, p.probe(r, args, obs.TriggerBefore, inst.Addr))
	case IPointAfter:
		return p.vm.Add(vm.Site{When: vm.AfterInst, Addr: inst.Addr}, p.probe(r, args, obs.TriggerAfter, inst.Addr))
	}
	return fmt.Errorf("pin: invalid insertion point %d", point)
}

func (p *Pin) insertBlockCall(block *cfg.Block, r Routine, args []Arg) error {
	return p.vm.Add(vm.Site{When: vm.AtBlockEntry, Addr: block.Start}, p.probe(r, args, obs.TriggerBlockEntry, block.Start))
}

// InsertEdgeCall inserts an analysis call on the control-flow edge from
// the block at from to the block at to. Pin has no such insertion point;
// it is the hook of the loop-detection extension (Section VI-E), which
// realizes loop trigger points as edges on the machine underneath Pin.
// An edge has no instruction for argument descriptors to read, so the
// call takes none.
func (p *Pin) InsertEdgeCall(from, to uint64, r Routine) error {
	return p.vm.Add(vm.Site{When: vm.AtEdge, Addr: to, From: from}, p.probe(r, nil, obs.TriggerEdge, to))
}

// probe builds the machine probe for one insertion of the routine — one
// analysis call, with the routine's inline surface — and registers it
// with the attached collector — a merged routine once per part, as
// attribution shares of one coalesced probe.
func (p *Pin) probe(r Routine, args []Arg, trigger string, addr uint64) vm.Probe {
	pr := vm.Probe{Fn: p.analysisCall(r.Fn, args), Pure: r.Pure, Flush: r.CounterFlush}
	if len(r.Merged) > 0 {
		pr.Shares = p.mergedShares(r, trigger, addr)
		return pr
	}
	pr.Cost = r.dispatchCost() + uint64(len(args))*ArgCost
	pr.ID = p.register(r, trigger, addr, pr.Cost)
	pr.Stride = r.Sample
	return pr
}

// Run starts the application under Pin. Image and routine callbacks fire
// first (ahead of time, from symbols); instruction and trace callbacks
// fire just in time as each block is first executed; fini callbacks fire
// at exit.
func (p *Pin) Run() (*vm.Result, error) {
	// Ahead-of-time modes: image and routine instrumentation across all
	// loaded images.
	for _, m := range p.prog.Modules {
		img := IMG{pin: p, mod: m}
		for _, cb := range p.imgCbs {
			cb(img)
		}
		for _, f := range m.Funcs {
			if len(f.Blocks) == 0 {
				continue
			}
			for _, cb := range p.rtnCbs {
				cb(RTN{pin: p, fn: f})
			}
		}
	}
	// Just-in-time modes: instruction and trace instrumentation on first
	// execution. Pin observes *every* executed block, shared libraries
	// included, and pays the JIT translation cost whether or not a tool
	// is attached.
	err := p.vm.SetTranslator(func(b *cfg.Block) {
		p.vm.Charge(TraceCost)
		if p.obs != nil {
			p.obs.NoteTranslation(TraceCost)
		}
		for _, cb := range p.traceCbs {
			cb(TRACE{pin: p, block: b})
		}
		if len(p.insCbs) > 0 {
			for _, in := range b.Insts {
				for _, cb := range p.insCbs {
					cb(INS{pin: p, inst: in})
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, fn := range p.finiCbs {
		fn := fn
		p.vm.OnEnd(func(*vm.Ctx) { fn() })
	}
	return p.vm.Run()
}
