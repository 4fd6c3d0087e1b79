// Package vm implements the execution substrate: an emulator for the
// synthetic ISA with a deterministic cycle model, a small runtime
// (malloc/free/print/exit intrinsics), and an instrumentation probe
// interface that the three binary frameworks build on.
//
// Probes come in four flavours, matching the trigger points that binary
// instrumentation frameworks expose:
//
//   - instruction before/after probes (after-probes on calls fire at the
//     call's fall-through, i.e. once the callee has returned, so the
//     return value is observable — Pin's IPOINT_AFTER semantics);
//   - block-entry probes, fired whenever execution enters a basic block;
//   - edge probes, fired when an intraprocedural CFG edge is traversed
//     (used to detect loop entry, iteration and exit);
//   - program start/end hooks for init/fini code.
//
// A translator hook is invoked the first time each basic block is about to
// execute; dynamic frameworks (Pin, Janus's DynamoRIO side) use it to
// instrument code just in time, at a per-block translation cost the
// machine charges and notes itself (SetTranslator).
//
// Probes are installed through one entry point, VM.Add, which takes the
// trigger point (Site) and the probe's callback, price, report label,
// mechanism and options (Probe). Every probe carries a dispatch cost in
// cycle units, charged when it fires; this is how the frameworks'
// differing instrumentation mechanisms (clean calls, inlined clean calls,
// trampoline snippets) are priced. A probe has one callback on every
// tier; its installer may vouch that the callback is pure (Probe.Pure)
// or additive (Probe.Flush), which lets the action-inlining layer fire it
// from the translated block loop as it is or promote it to a counter.
//
// When a Collector is attached via Config.Obs, Add registers each
// installed probe's attribution row (one per share of a coalesced
// probe), so a framework only decides a probe's site and price, and
// every firing is attributed to its row — count and cycles. A firing only
// bumps the probe's attribution record (see tally); the records reach
// the collector in batches at the machine's flush points, so a mid-run
// snapshot lags by at most one flush period and the final one is
// exact. Add resolves each probe's per-firing behaviour once, so one
// fire loop serves observed and unobserved machines alike, and a
// machine without a collector runs no attribution code at all.
package vm

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/obs"
)

// Runtime intrinsic pseudo-addresses.
const (
	addrMalloc = obj.IntrinsicBase + 0x00
	addrFree   = obj.IntrinsicBase + 0x10
	addrPrint  = obj.IntrinsicBase + 0x20
	addrExit   = obj.IntrinsicBase + 0x30
)

// RuntimeExterns returns the extern symbol table providing the VM runtime
// intrinsics; pass it to obj.Load.
func RuntimeExterns() map[string]uint64 {
	return map[string]uint64{
		"malloc": addrMalloc,
		"free":   addrFree,
		"print":  addrPrint,
		"exit":   addrExit,
	}
}

// ProbeFn is an instrumentation callback.
type ProbeFn func(*Ctx)

type probe struct {
	// fn is the probe's per-firing behaviour, resolved once by Add (see
	// resolve); nil for a promoted counter, whose firing only bumps tal.
	fn   ProbeFn
	cost uint64
	// ctl, when non-nil, is the probe's adaptive control block: the
	// sampling countdown and the enable bit checked at fire time. Nil for
	// always-on probes, which pay nothing for the feature.
	ctl *probeCtl
	// tal is the probe's attribution record, shared by every copy of
	// the probe; nil on an unobserved machine unless the probe is a
	// promoted counter.
	tal *tally
	// pure marks a probe installed as Probe.Pure on an inlining
	// machine, which the block loop may fire without synchronizing the
	// machine state.
	pure bool
}

// TrapError reports a machine fault (invalid code address, division by
// zero, heap exhaustion, ...).
type TrapError struct {
	PC  uint64
	Msg string
}

func (e *TrapError) Error() string { return fmt.Sprintf("vm: trap at %#x: %s", e.PC, e.Msg) }

// Result summarizes a completed execution.
type Result struct {
	// Cycles is the total cost in units (application + instrumentation).
	Cycles uint64
	// Insts is the number of application instructions executed.
	Insts uint64
	// ExitCode is the value passed to the exit intrinsic (0 for Halt).
	ExitCode uint64
	// Allocs and Frees count malloc/free intrinsic calls.
	Allocs, Frees uint64
}

const (
	flagBefore = 1 << iota
	flagAfter
	flagBlockEntry
	flagEdgeTo
	flagTranslated
)

type modExec struct {
	base   uint64
	insts  []*isa.Inst  // indexed by addr-base; nil at non-instruction offsets
	blocks []*cfg.Block // indexed by addr-base; nil at non-block-start offsets
	flags  []uint8
	// probes holds the per-offset probe lists, allocated only at offsets
	// that have any. The flags byte is the hot-loop gate: a set probe bit
	// guarantees the corresponding list below is present, so dispatch is
	// a flag test plus two array indexes — no map lookups.
	probes []*offProbes
	// bstart/bidx map each instruction offset to its owning block's start
	// offset and its index within the block, so the translated tier can
	// enter a cached block program mid-block (call fall-throughs).
	bstart []uint32
	bidx   []int32
	// bprogs is the code cache of the translated tier, indexed by
	// block-start offset; nil until first entry or after invalidation.
	bprogs []*blockProg
}

// offProbes is the probe storage of one code offset: instruction
// before/after lists, the block-entry list, and the incoming-edge table
// (block-start offsets only).
type offProbes struct {
	before, after, entry []probe
	// edgeIn lists edge probes by predecessor block; the hot loop scans
	// it linearly (blocks rarely have more than two instrumented
	// predecessors) instead of hashing a [2]uint64 key.
	edgeIn []edgeProbes
}

type edgeProbes struct {
	from   uint64
	probes []probe
}

// probesAt returns the probe storage for the offset, allocating it on
// first use.
func (m *modExec) probesAt(off uint64) *offProbes {
	if p := m.probes[off]; p != nil {
		return p
	}
	p := &offProbes{}
	m.probes[off] = p
	return p
}

// Config parameterizes a VM.
type Config struct {
	// Fuel bounds the number of application instructions executed
	// (default 2e9). Exceeding it is a trap.
	Fuel uint64
	// AppOut receives the application's print output (default: discard).
	AppOut io.Writer
	// Obs, when non-nil, receives per-probe firing attribution (count,
	// cycles, skips), batched at the machine's flush points, and one
	// trace event per firing. Nil disables observability: no attribution
	// code runs.
	Obs *obs.Collector
	// ExecMode selects the execution tier: ExecTranslated (default) runs
	// cached block programs, ExecInterpreted the reference
	// per-instruction loop. Both are bit-identical in every observable:
	// Result fields, cycle totals, obs attribution, traps and output.
	ExecMode ExecMode
	// NoInline disables the translated tier's action-inlining layer
	// (promoted counters bumped in the block loop, pure probes fired
	// there without synchronizing the machine state); an escape hatch
	// for debugging and differential testing. Inlining never changes
	// observables, only host speed, so the flag has no effect on
	// results. Ignored on the interpreted tier, which never inlines.
	NoInline bool
	// Adaptive attaches a control block to every installed probe so all
	// of them can be downsampled, disabled and re-armed mid-run (see
	// SetProbeStride/SetProbeEnabled). Without it only probes installed
	// with an explicit sampling stride carry a control block; everything
	// else keeps the zero-overhead always-on path.
	Adaptive bool
	// Stop, when non-nil, is a cooperative cancellation flag: any
	// goroutine may set it, and the machine checks it at block-start
	// dispatch (the same observation point the pace hook uses), returning
	// ErrStopped from Run with promoted counters flushed. Session
	// schedulers (internal/fleet) use it to cancel long-running sessions
	// on drain. Nil keeps the dispatch loop free of the check.
	Stop *atomic.Bool
	// OnMachine, when non-nil, is called by New with the finished
	// machine, before any probe is installed — the hook adaptive
	// controllers (internal/governor) attach through.
	OnMachine func(*VM)
}

// ErrStopped is returned by Run when the machine was cancelled through
// Config.Stop. The machine state behind it is consistent (promoted
// counters flushed, attribution reconciled up to the stop point).
var ErrStopped = errors.New("vm: stopped on request")

// VM is a single-use machine: create, instrument, Run once.
type VM struct {
	// Prog is the control-flow view of the loaded program.
	Prog *cfg.Program

	mem   *Memory
	regs  [isa.NumRegs]uint64
	pc    uint64
	mods  []*modExec
	lastM *modExec

	mode ExecMode
	// inline enables the action-inlining layer: pure probes and promoted
	// counters (translated tier only, see Config.NoInline).
	// Fixed for the whole run.
	inline bool
	// dirty lists promoted counters with pending fires, in first-bump
	// order; flushCounters drains it at observation points. pend lists
	// the other tallies with unattributed fires or skips; flush drains
	// both.
	dirty, pend []*tally

	cycles   uint64
	insts    uint64
	fuel     uint64
	depth    int
	halted   bool
	exitCode uint64
	allocs   uint64
	frees    uint64
	heapNext uint64

	appOut io.Writer
	obsC   *obs.Collector

	translator           func(*cfg.Block)
	translateCost        uint64 // charged per block translation
	startHooks, endHooks []ProbeFn

	curBlock     uint64
	blockStack   []frameBlock
	suppressEdge bool
	pending      []pendingAfter

	// Adaptive-instrumentation state (see adaptive.go): the control
	// blocks of sampled/governable probes and the cycle-paced hook the
	// governor runs from.
	adaptive bool
	ctls     []*probeCtl
	ctlByID  map[obs.ProbeID]*probeCtl

	pacer     func()
	paceEvery uint64
	// The block-start schedule: nextPace and nextFlush are the cycle
	// counts at which the pace hook and the periodic counter flush are
	// next due (never when the machine has none), and nextTick is the
	// earlier of the two, so block-start dispatch makes one compare.
	nextPace, nextFlush, nextTick uint64
	// stop is the cooperative cancellation flag (Config.Stop); checked
	// at block-start dispatch only when non-nil.
	stop *atomic.Bool

	ctx Ctx
}

type pendingAfter struct {
	fall   uint64
	depth  int
	probes []probe
	inst   *isa.Inst
	// block is the call's basic block, captured at push time so the
	// probe observes it at the fall-through even if the fall-through
	// starts a different block (or control returned somewhere odd).
	block *cfg.Block
}

type frameBlock struct {
	addr uint64
	blk  *cfg.Block
}

// New builds a VM for the program. The module images are copied into
// memory; registers are zeroed; sp is initialized to the stack top.
func New(prog *cfg.Program, cfgv Config) *VM {
	if cfgv.Fuel == 0 {
		cfgv.Fuel = 2_000_000_000
	}
	if cfgv.AppOut == nil {
		cfgv.AppOut = io.Discard
	}
	v := &VM{
		Prog:         prog,
		mem:          NewMemory(),
		mode:         cfgv.ExecMode,
		inline:       cfgv.ExecMode != ExecInterpreted && !cfgv.NoInline,
		fuel:         cfgv.Fuel,
		appOut:       cfgv.AppOut,
		obsC:         cfgv.Obs,
		heapNext:     obj.HeapBase,
		suppressEdge: true,
		adaptive:     cfgv.Adaptive,
		stop:         cfgv.Stop,
		nextPace:     never,
		nextFlush:    never,
	}
	if v.obsC != nil {
		v.nextFlush = counterFlushPeriod
	}
	v.nextTick = min(v.nextPace, v.nextFlush)
	v.ctx.vm = v
	for _, m := range prog.Modules {
		l := m.Loaded
		me := &modExec{
			base:   l.Base,
			insts:  make([]*isa.Inst, len(l.Image)),
			blocks: make([]*cfg.Block, len(l.Image)),
			flags:  make([]uint8, len(l.Image)),
			probes: make([]*offProbes, len(l.Image)),
		}
		if v.mode != ExecInterpreted {
			// The block-index and code-cache arrays exist only for the
			// translated tier.
			me.bstart = make([]uint32, len(l.Image))
			me.bidx = make([]int32, len(l.Image))
			me.bprogs = make([]*blockProg, len(l.Image))
		}
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				me.blocks[b.Start-l.Base] = b
				for i, in := range b.Insts {
					off := in.Addr - l.Base
					me.insts[off] = in
					if me.bstart != nil {
						me.bstart[off] = uint32(b.Start - l.Base)
						me.bidx[off] = int32(i)
					}
				}
			}
		}
		v.mods = append(v.mods, me)
		v.mem.WriteBytes(l.Base, l.Image)
		v.mem.WriteBytes(l.DataBase, l.DataImage)
	}
	sort.Slice(v.mods, func(i, j int) bool { return v.mods[i].base < v.mods[j].base })
	v.regs[isa.SP] = obj.StackTop
	v.regs[isa.FP] = obj.StackTop
	v.pc = prog.Obj.Entry()
	if cfgv.OnMachine != nil {
		cfgv.OnMachine(v)
	}
	return v
}

// modFor maps a code address to its module: an MRU hit for the common
// case (consecutive instructions share a module), then binary search over
// the base-sorted module list.
func (v *VM) modFor(addr uint64) *modExec {
	if m := v.lastM; m != nil && addr >= m.base && addr-m.base < uint64(len(m.insts)) {
		return m
	}
	i := sort.Search(len(v.mods), func(i int) bool { return v.mods[i].base > addr }) - 1
	if i >= 0 {
		if m := v.mods[i]; addr-m.base < uint64(len(m.insts)) {
			v.lastM = m
			return m
		}
	}
	return nil
}

// Site names where a probe fires. When selects the trigger point:
// BeforeInst and AfterInst take the instruction at Addr (after-probes on
// calls fire at the fall-through, once the callee returns; there is no
// well-defined "after" point on branches, returns and halts, matching
// the restrictions real frameworks impose); AtBlockEntry takes the basic
// block starting at Addr; AtEdge takes the intraprocedural edge from the
// block starting at From to the block starting at Addr. Program start
// and end are hooked through OnStart/OnEnd, not installed as probes.
type Site struct {
	When       When
	Addr, From uint64
}

// Probe describes one probe installation.
type Probe struct {
	// Fn is the callback run on each firing.
	Fn ProbeFn
	// Cost is charged on each firing (cycle units).
	Cost uint64
	// Label and Mechanism describe the probe's attribution row on the
	// collector attached via Config.Obs (see Add): its tool-level origin
	// and the framework's dispatch mechanism (obs.MechCleanCall, ...).
	Label, Mechanism string
	// Pure vouches that Fn is pure with respect to the machine: it never
	// installs probes, never reads Cycles(), and depends on no Ctx state
	// beyond what the firing trigger defines (instruction, when). The
	// action-inlining layer (the translated tier unless Config.NoInline
	// is set) may then fire it from the block loop without synchronizing
	// the machine state first.
	Pure bool
	// Flush, when non-nil, vouches that n consecutive firings of Fn are
	// equivalent, in every observable, to one Flush(n) call; it implies
	// Pure. The inlining layer then promotes the probe to a counter: a
	// firing only bumps the pending-fire count of its attribution record
	// (see tally), and Flush(n) applies them at the next observation
	// point — a non-counter fire, the translator and pace hooks, traps,
	// stop and end — and with every periodic attribution flush, which
	// on an observed machine attributes the n firings in the same batch.
	Flush func(n int64)
	// Stride samples the probe: it fires on every Stride-th hit (0 and 1
	// mean every hit). A stride above 1 — or Config.Adaptive — attaches
	// a control block, making the probe governable
	// (SetProbeStride/SetProbeEnabled).
	Stride uint64
	// Shares, when non-empty, makes this one coalesced probe attributed
	// across its constituent placements (see Share): its cost is the sum
	// of the shares' costs and its rows the shares', so Cost, Label and
	// Mechanism are ignored. Coalesced probes have no control block: they
	// cannot be sampled and cannot run on an adaptive machine.
	Shares []Share
}

// Add installs probe p at site s. It fails, installing nothing, when the
// site names no instruction or block of the program, when an after-probe
// would sit on a branch, return or halt, or when a coalesced probe is
// sampled or installed on an adaptive machine.
//
// On a machine with a collector, an installed probe registers its
// attribution row: trigger s.When, address s.Addr (the instruction for
// an after-probe, the destination block for an edge), p's label and
// mechanism, and p.Cost as the dispatch cost — or one such row per share,
// in share order, for a coalesced probe. A refused probe registers
// nothing.
func (v *VM) Add(s Site, p Probe) error {
	if len(p.Shares) > 0 {
		if v.adaptive {
			return errors.New("vm: coalesced probes have no control block and cannot run in adaptive mode")
		}
		if p.Stride > 1 {
			return errors.New("vm: coalesced probes have no control block and cannot be sampled")
		}
	}
	var m *modExec
	switch s.When {
	case BeforeInst, AfterInst:
		if m = v.modFor(s.Addr); m == nil || m.insts[s.Addr-m.base] == nil {
			return fmt.Errorf("vm: no instruction at %#x", s.Addr)
		}
		if s.When == AfterInst {
			switch op := m.insts[s.Addr-m.base].Op; op {
			case isa.Branch, isa.Return, isa.Halt:
				return fmt.Errorf("vm: after-probe invalid on %s at %#x", op, s.Addr)
			}
		}
	case AtBlockEntry, AtEdge:
		if m = v.modFor(s.Addr); m == nil || m.blocks[s.Addr-m.base] == nil {
			return fmt.Errorf("vm: no basic block starting at %#x", s.Addr)
		}
		if s.When == AtEdge {
			if mf := v.modFor(s.From); mf == nil || mf.blocks[s.From-mf.base] == nil {
				return fmt.Errorf("vm: no basic block starting at %#x", s.From)
			}
		}
	default:
		return fmt.Errorf("vm: no probe site at trigger %d (hook program start and end with OnStart/OnEnd)", s.When)
	}
	off := s.Addr - m.base
	cost := p.Cost
	if len(p.Shares) > 0 {
		cost = 0
		for _, sh := range p.Shares {
			cost += sh.Cost
		}
	}
	id, rows := v.register(s, p)
	np := probe{fn: p.Fn, cost: cost}
	// Only the inlining layer reads Pure and Flush.
	flush := p.Flush
	if v.inline {
		np.pure = p.Pure || flush != nil
	} else {
		flush = nil
	}
	if v.obsC != nil || flush != nil {
		np.tal = &tally{id: id, cost: cost, shares: rows, pc: s.Addr}
		if s.When == AfterInst {
			// An after-probe fires at the fall-through.
			np.tal.pc = m.insts[off].Next()
		}
	}
	if flush != nil {
		np.fn, np.tal.counter = nil, flush
	}
	if np.fn != nil {
		np.fn = v.resolve(np.fn, np.tal)
	}
	if len(p.Shares) == 0 {
		np.ctl = v.newCtl(id, p.Stride, np.tal)
	}
	ps := m.probesAt(off)
	switch s.When {
	case BeforeInst, AfterInst:
		// Before/after probes are fused into translated blocks: drop the
		// cached block, and let control changes find it again.
		if np.ctl != nil {
			np.ctl.sites = append(np.ctl.sites, ctlSite{m: m, off: off})
		}
		if s.When == BeforeInst {
			ps.before = append(ps.before, np)
			m.flags[off] |= flagBefore
		} else {
			ps.after = append(ps.after, np)
			m.flags[off] |= flagAfter
		}
		m.invalidate(off)
	case AtBlockEntry:
		// Entry and edge lists are read live at dispatch, so neither
		// installation nor control changes need block invalidation.
		ps.entry = append(ps.entry, np)
		m.flags[off] |= flagBlockEntry
	case AtEdge:
		m.flags[off] |= flagEdgeTo
		for i := range ps.edgeIn {
			if ps.edgeIn[i].from == s.From {
				ps.edgeIn[i].probes = append(ps.edgeIn[i].probes, np)
				return nil
			}
		}
		ps.edgeIn = append(ps.edgeIn, edgeProbes{from: s.From, probes: []probe{np}})
	}
	return nil
}

// register records the attribution rows of a probe Add accepted at s —
// the probe's own, or its shares' in share order — and returns the ID
// its tally and control block take (the first row's) with the rows of a
// coalesced probe. A machine without a collector registers nothing.
func (v *VM) register(s Site, p Probe) (obs.ProbeID, []row) {
	if v.obsC == nil {
		return obs.NoProbe, nil
	}
	meta := obs.ProbeMeta{Trigger: triggerNames[s.When], Addr: s.Addr}
	if len(p.Shares) == 0 {
		meta.Label, meta.Mechanism, meta.DispatchCost = p.Label, p.Mechanism, p.Cost
		return v.obsC.RegisterProbe(meta), nil
	}
	rows := make([]row, len(p.Shares))
	for i, sh := range p.Shares {
		meta.Label, meta.Mechanism, meta.DispatchCost = sh.Label, sh.Mechanism, sh.Cost
		rows[i] = row{id: v.obsC.RegisterProbe(meta), cost: sh.Cost}
	}
	return rows[0].id, rows
}

// triggerNames maps each probe site's trigger to its report name.
var triggerNames = [...]string{
	BeforeInst:   obs.TriggerBefore,
	AfterInst:    obs.TriggerAfter,
	AtBlockEntry: obs.TriggerBlockEntry,
	AtEdge:       obs.TriggerEdge,
}

// SetTranslator installs the just-in-time translation hook, called once per
// basic block immediately before its first execution. Dynamic frameworks
// instrument blocks from this hook. Each translation costs cost cycle
// units: the machine charges them and notes the translation on its
// collector before it runs the hook. Only one translator may be
// installed.
func (v *VM) SetTranslator(cost uint64, fn func(*cfg.Block)) error {
	if v.translator != nil {
		return fmt.Errorf("vm: translator already installed")
	}
	v.translator, v.translateCost = fn, cost
	return nil
}

// runTranslator translates blk on its first entry: an observation point
// (the hook may read tool state and installs probes), so promoted
// counters flush; then the machine charges and notes the translation and
// runs the hook with blk as the context's block.
func (v *VM) runTranslator(blk *cfg.Block) {
	if len(v.dirty) > 0 {
		v.flushCounters()
	}
	v.cycles += v.translateCost
	if v.obsC != nil {
		v.obsC.NoteTranslation(v.translateCost)
	}
	v.ctx.block = blk
	v.translator(blk)
}

// OnStart registers a hook run before the first instruction.
func (v *VM) OnStart(fn ProbeFn) { v.startHooks = append(v.startHooks, fn) }

// OnEnd registers a hook run after the program halts.
func (v *VM) OnEnd(fn ProbeFn) { v.endHooks = append(v.endHooks, fn) }

// Cycles returns the cycle-unit count so far.
func (v *VM) Cycles() uint64 { return v.cycles }

// Mem returns the machine memory (frameworks use it for snippet
// evaluation).
func (v *VM) Mem() *Memory { return v.mem }

// Reg returns the current value of a register.
func (v *VM) Reg(r isa.Reg) uint64 { return v.regs[r] }

// resolve returns a non-counter probe's per-firing behaviour: its body,
// behind the promoted-counter flush on an inlining machine — the body
// may read any cell a counter covers, install probes or observe Cycles,
// so it is a full observation point — and followed on an observed
// machine by the bump of its tally. A machine with neither runs the
// body itself.
func (v *VM) resolve(body ProbeFn, t *tally) ProbeFn {
	if v.obsC != nil {
		return func(c *Ctx) {
			if len(v.dirty) > 0 {
				v.flushCounters()
			}
			body(c)
			v.fired(t)
		}
	}
	if v.inline {
		return func(c *Ctx) {
			if len(v.dirty) > 0 {
				v.flushCounters()
			}
			body(c)
		}
	}
	return body
}

// stopErr finalizes a cooperative cancellation: like a trap it is an
// observation point, so the machine flushes before the error surfaces.
func (v *VM) stopErr() error {
	v.flush()
	return ErrStopped
}

func (v *VM) trap(format string, args ...any) error {
	// Traps are observation points: promoted counters flush so the
	// machine state behind the error matches the interpreter's exactly,
	// and attribution reaches the collector.
	v.flush()
	return &TrapError{PC: v.pc, Msg: fmt.Sprintf(format, args...)}
}

// fire runs a batch of probes, each in turn: gate, charge, run. A
// promoted counter's run is a bump of its accumulator; every other
// probe runs the behaviour Add resolved for it.
func (v *VM) fire(ps []probe, in *isa.Inst, when When) {
	c := &v.ctx
	saveInst, saveWhen, saveBlock := c.inst, c.when, c.block
	c.inst, c.when = in, when
	for i := range ps {
		p := &ps[i]
		if p.ctl != nil && !p.ctl.gate(v) {
			continue
		}
		v.cycles += p.cost
		if p.fn == nil {
			v.counted(p.tal)
			continue
		}
		p.fn(c)
	}
	c.inst, c.when, c.block = saveInst, saveWhen, saveBlock
}

// fireCallAfter fires a drained call-after batch at the call's
// fall-through. The probe observes the call's own basic block, captured
// when the pending entry was pushed — not whatever block the
// fall-through happens to start.
func (v *VM) fireCallAfter(top pendingAfter) {
	save := v.ctx.block
	v.ctx.block = top.block
	v.fire(top.probes, top.inst, AfterInst)
	v.ctx.block = save
}

// Run executes the program to completion and returns the execution
// summary. The execution tier is selected by Config.ExecMode; both
// tiers produce bit-identical results.
func (v *VM) Run() (*Result, error) {
	if v.halted {
		return nil, fmt.Errorf("vm: Run called twice")
	}
	for _, fn := range v.startHooks {
		v.ctx.when = AtStart
		fn(&v.ctx)
	}
	var err error
	if v.mode == ExecInterpreted {
		err = v.runInterp()
	} else {
		err = v.runTranslated()
	}
	if err != nil {
		return nil, err
	}
	// End hooks (and the caller's post-run reads) observe final tool
	// state and final attribution: flush first.
	v.flush()
	for _, fn := range v.endHooks {
		v.ctx.when = AtEnd
		v.ctx.inst = nil
		fn(&v.ctx)
	}
	return &Result{
		Cycles:   v.cycles,
		Insts:    v.insts,
		ExitCode: v.exitCode,
		Allocs:   v.allocs,
		Frees:    v.frees,
	}, nil
}

// runInterp is the reference per-instruction interpreter loop: the
// semantic oracle the translated tier is checked against.
func (v *VM) runInterp() error {
	for !v.halted {
		if v.insts >= v.fuel {
			return v.trap("out of fuel after %d instructions", v.insts)
		}
		// Fire pending call-after probes whose fall-through we reached.
		for len(v.pending) > 0 {
			top := v.pending[len(v.pending)-1]
			if top.fall != v.pc || top.depth != v.depth {
				break
			}
			v.pending = v.pending[:len(v.pending)-1]
			v.fireCallAfter(top)
		}

		m := v.modFor(v.pc)
		if m == nil {
			return v.trap("execution outside code")
		}
		off := v.pc - m.base
		in := m.insts[off]
		if in == nil {
			return v.trap("not an instruction boundary")
		}

		if blk := m.blocks[off]; blk != nil {
			// The pace hook fires at block-start dispatch, the same point
			// the translated tier checks it, so governor decisions are
			// driven by an identical (cycles, block) sequence on both
			// tiers.
			if v.stop != nil && v.stop.Load() {
				return v.stopErr()
			}
			if v.cycles >= v.nextTick {
				v.tick()
			}
			if v.translator != nil && m.flags[off]&flagTranslated == 0 {
				m.flags[off] |= flagTranslated
				v.runTranslator(blk)
			}
			// Flags and probe storage are (re)read after translation: a
			// just-translated block may have installed probes at this very
			// offset, and they must fire on this first execution.
			flags := m.flags[off]
			op := m.probes[off]
			if !v.suppressEdge && flags&flagEdgeTo != 0 {
				for i := range op.edgeIn {
					if op.edgeIn[i].from == v.curBlock {
						v.ctx.block = blk
						v.fire(op.edgeIn[i].probes, in, AtEdge)
						break
					}
				}
			}
			v.curBlock = v.pc
			v.ctx.block = blk
			if flags&flagBlockEntry != 0 {
				v.fire(op.entry, in, AtBlockEntry)
			}
		}
		v.suppressEdge = false

		flags := m.flags[off]
		op := m.probes[off]
		if flags&flagBefore != 0 {
			v.fire(op.before, in, BeforeInst)
		}

		depthBefore := v.depth
		if err := v.exec(in); err != nil {
			return err
		}
		v.cycles += instCost(in.Op)
		v.insts++

		if flags&flagAfter != 0 {
			if in.Op == isa.Call {
				v.pending = append(v.pending, pendingAfter{
					fall: in.Next(), depth: depthBefore, probes: op.after,
					inst: in, block: v.ctx.block,
				})
			} else {
				v.fire(op.after, in, AfterInst)
			}
		}
	}
	return nil
}

func (v *VM) operandVal(op isa.Operand) uint64 {
	switch op.Kind {
	case isa.KindReg:
		return v.regs[op.Reg]
	case isa.KindImm:
		return uint64(op.Imm)
	case isa.KindMem:
		return v.mem.Read64(v.regs[op.Base] + uint64(op.Off))
	}
	return 0
}

func (v *VM) exec(in *isa.Inst) error {
	next := in.Next()
	switch in.Op {
	case isa.Nop:
		v.pc = next
	case isa.Mov:
		v.regs[in.Ops[0].Reg] = v.operandVal(in.Ops[1])
		v.pc = next
	case isa.Load:
		ea := v.regs[in.Ops[1].Base] + uint64(in.Ops[1].Off)
		v.regs[in.Ops[0].Reg] = v.mem.Read64(ea)
		v.pc = next
	case isa.Store:
		ea := v.regs[in.Ops[1].Base] + uint64(in.Ops[1].Off)
		v.mem.Write64(ea, v.regs[in.Ops[0].Reg])
		v.pc = next
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr:
		a := v.regs[in.Ops[1].Reg]
		b := v.operandVal(in.Ops[2])
		var r uint64
		switch in.Op {
		case isa.Add:
			r = a + b
		case isa.Sub:
			r = a - b
		case isa.Mul:
			r = a * b
		case isa.Div:
			if b == 0 {
				return v.trap("division by zero")
			}
			r = uint64(int64(a) / int64(b))
		case isa.Rem:
			if b == 0 {
				return v.trap("division by zero")
			}
			r = uint64(int64(a) % int64(b))
		case isa.And:
			r = a & b
		case isa.Or:
			r = a | b
		case isa.Xor:
			r = a ^ b
		case isa.Shl:
			r = a << (b & 63)
		case isa.Shr:
			r = a >> (b & 63)
		}
		v.regs[in.Ops[0].Reg] = r
		v.pc = next
	case isa.GetPtr:
		v.regs[in.Ops[0].Reg] = v.regs[in.Ops[1].Reg] + v.operandVal(in.Ops[2]) + uint64(in.Ops[3].Imm)
		v.pc = next
	case isa.Branch:
		taken := true
		var target uint64
		if in.Cond != isa.Always {
			taken = in.Cond.Holds(int64(v.regs[in.Ops[0].Reg]), int64(v.regs[in.Ops[1].Reg]))
			target = uint64(in.Ops[2].Imm)
		} else if in.Ops[0].Kind == isa.KindReg {
			target = v.regs[in.Ops[0].Reg]
		} else {
			target = uint64(in.Ops[0].Imm)
		}
		if taken {
			v.pc = target
		} else {
			v.pc = next
		}
	case isa.Call:
		var target uint64
		if in.Ops[0].Kind == isa.KindReg {
			target = v.regs[in.Ops[0].Reg]
		} else {
			target = uint64(in.Ops[0].Imm)
		}
		if obj.IsIntrinsic(target) {
			if err := v.intrinsic(target); err != nil {
				return err
			}
			v.pc = next
			return nil
		}
		sp := v.regs[isa.SP] - 8
		v.regs[isa.SP] = sp
		v.mem.Write64(sp, next)
		v.blockStack = append(v.blockStack, frameBlock{v.curBlock, v.ctx.block})
		v.depth++
		if v.depth > 100000 {
			return v.trap("call depth exceeded")
		}
		v.pc = target
		v.suppressEdge = true
	case isa.Return:
		sp := v.regs[isa.SP]
		v.pc = v.mem.Read64(sp)
		v.regs[isa.SP] = sp + 8
		if n := len(v.blockStack); n > 0 {
			v.curBlock = v.blockStack[n-1].addr
			v.ctx.block = v.blockStack[n-1].blk
			v.blockStack = v.blockStack[:n-1]
		} else {
			v.curBlock = 0
			v.ctx.block = nil
		}
		if v.depth > 0 {
			v.depth--
		}
	case isa.Halt:
		v.halted = true
	default:
		return v.trap("unimplemented opcode %s", in.Op)
	}
	return nil
}

func (v *VM) intrinsic(addr uint64) error {
	v.cycles += IntrinsicCost
	switch addr {
	case addrMalloc:
		size := v.regs[isa.R1]
		if size == 0 {
			size = 1
		}
		size = (size + 15) &^ 15
		if v.heapNext+size > obj.HeapLimit {
			return v.trap("heap exhausted")
		}
		v.regs[isa.R0] = v.heapNext
		v.heapNext += size
		v.allocs++
	case addrFree:
		v.frees++
	case addrPrint:
		fmt.Fprintf(v.appOut, "%d\n", int64(v.regs[isa.R1]))
	case addrExit:
		v.exitCode = v.regs[isa.R1]
		v.halted = true
	default:
		return v.trap("unknown intrinsic %#x", addr)
	}
	return nil
}
