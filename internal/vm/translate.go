package vm

// This file implements the VM's block-translation execution tier: the
// same just-in-time strategy the binary frameworks it models use
// (DynamoRIO fragments, Pin traces). On first entry to a basic block the
// block is compiled into a cached blockProg — a pre-decoded straight-line
// array of operation thunks with the block's instruction probe schedule
// fused inline at its exact trigger points and the static cycle cost
// pre-summed — and every subsequent entry runs the cached program.
// modFor, flag loads, probe-table lookups and the fuel check move from
// per-instruction to per-block frequency.
//
// The tier is required to be bit-identical to the reference interpreter
// (runInterp): cycle totals, Result fields, obs attribution, trace
// events, trap text and print output. The conformance oracle treats any
// tier divergence as illegal, so every accounting shortcut below is
// paired with a mechanism that restores exactness at each observation
// point (probe firings, traps, dispatcher entries):
//
//   - batched cycle/instruction accounting is flushed from the pre-summed
//     suffix-cost array before any probe fires, so a probe body reading
//     Cycles() sees exactly the interpreter's value;
//   - when the remaining fuel cannot cover a whole block, a precise
//     per-step tail runs so an out-of-fuel trap reports the exact same
//     instruction count and PC as the interpreter;
//   - installing a probe into an already-translated block invalidates its
//     cached program (translators install probes mid-run); a running
//     program notices the invalidation at its next probe boundary,
//     finishes the current instruction with interpreter semantics and
//     exits to the dispatcher for retranslation.
//
// Pending call-after probes need draining only at dispatcher entries:
// straight-line flow cannot reach a call's fall-through without executing
// the call itself (the fall-through is the very next instruction), and
// every control transfer exits to the dispatcher.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// ExecMode selects the VM execution tier.
type ExecMode uint8

const (
	// ExecTranslated runs cached block programs (the default): blocks are
	// compiled on first entry and re-executed from the code cache.
	ExecTranslated ExecMode = iota
	// ExecInterpreted runs the reference per-instruction loop.
	ExecInterpreted
)

// String returns the mode's name, as the dispatch bench records it.
func (m ExecMode) String() string {
	switch m {
	case ExecTranslated:
		return "translated"
	case ExecInterpreted:
		return "interpreted"
	}
	return fmt.Sprintf("execmode?%d", uint8(m))
}

// stepRes is a thunk's control-flow outcome.
type stepRes uint8

const (
	// stepNext falls through to the following step of the block program.
	stepNext stepRes = iota
	// stepJump exits the block program; v.pc holds the next address.
	stepJump
)

// step is one pre-decoded instruction of a block program.
type step struct {
	run  func(*VM) (stepRes, error)
	in   *isa.Inst
	cost uint64
	// before/after are the instruction's probe lists fused at translation
	// time. They are exactly the live lists as long as the program is
	// valid: any install into the block invalidates it.
	before, after []probe
	isCall        bool
}

// blockProg is a translated basic block: the unit of the code cache.
type blockProg struct {
	steps []step
	// sufCost[i] holds the summed instruction cost of steps[i:], so the
	// cost of any executed run [i,k) is one subtraction.
	sufCost []uint64
	// endPC is the fall-through address past the last instruction.
	endPC uint64
	// valid is cleared when a probe is installed into the block; the
	// running program checks it after every probe boundary.
	valid bool
	// probed is set if any step carries instruction probes; probe-free
	// programs run a leaner loop with no per-step probe checks.
	probed bool
}

// translate compiles the basic block starting at offset so of module m
// into a blockProg and caches it. Callers must ensure m.blocks[so] != nil.
//
// When the inlining layer is on, probe lists whose members are all pure
// are fused into the operation thunk as superinstructions
// (see fuseBefore/fuseAfter): the step then runs fires and operation in
// one indirect call, and a block whose every probe fuses drops its
// probed bit entirely, running on the lean probe-free loop.
func (v *VM) translate(m *modExec, so uint64) *blockProg {
	insts := m.blocks[so].Insts
	bp := &blockProg{
		steps:   make([]step, len(insts)),
		sufCost: make([]uint64, len(insts)+1),
		endPC:   insts[len(insts)-1].Next(),
		valid:   true,
	}
	for i, in := range insts {
		st := &bp.steps[i]
		st.in = in
		st.cost = instCost(in.Op)
		st.isCall = in.Op == isa.Call
		st.run = compileStep(in)
		off := in.Addr - m.base
		if f := m.flags[off]; f&(flagBefore|flagAfter) != 0 {
			p := m.probes[off]
			if f&flagBefore != 0 {
				st.before = liveProbes(p.before)
			}
			if f&flagAfter != 0 {
				if st.isCall {
					// Call after-fires resolve at the fall-through via the
					// pending mechanism: push the live list, so a probe
					// re-armed while the callee runs still fires there,
					// exactly as in the interpreter (the fire-time gate
					// suppresses disabled ones).
					st.after = p.after
				} else {
					st.after = liveProbes(p.after)
				}
			}
		}
		if v.inline {
			if st.before != nil && allPure(st.before) {
				st.run = fuseBefore(st.before, in, st.run)
				st.before = nil
			}
			// After-fires fuse only when no generic before-probe remains
			// on the step: a generic before-body may install an
			// after-probe on its own instruction, which must fire on this
			// very execution (finishStepSlow re-reads the live list), and
			// a fused after list would miss it. Pure probes never
			// install, so a fused or empty before side is safe. Call
			// after-fires stay generic: they fire at the fall-through via
			// the pending mechanism, not here.
			if st.after != nil && st.before == nil && !st.isCall && allPure(st.after) {
				st.run = fuseAfter(st.after, in, st.run)
				st.after = nil
			}
		}
		if st.before != nil || st.after != nil {
			bp.probed = true
		}
	}
	for i := len(insts) - 1; i >= 0; i-- {
		bp.sufCost[i] = bp.sufCost[i+1] + bp.steps[i].cost
	}
	m.bprogs[so] = bp
	return bp
}

// allPure reports whether every probe of the list is pure (lists fuse
// whole or not at all).
func allPure(ps []probe) bool {
	for i := range ps {
		if !ps[i].pure {
			return false
		}
	}
	return true
}

// liveProbes filters logically-removed probes out of a list at
// translation time — the steady-state form of mid-run removal: the
// ejected probe vanishes from the cached block until re-arming
// invalidates it back in. Returns the original slice when nothing is
// disabled, nil when everything is.
func liveProbes(ps []probe) []probe {
	for i := range ps {
		if ct := ps[i].ctl; ct != nil && !ct.enabled {
			live := append([]probe(nil), ps[:i]...)
			for j := i + 1; j < len(ps); j++ {
				if ct := ps[j].ctl; ct != nil && !ct.enabled {
					continue
				}
				live = append(live, ps[j])
			}
			if len(live) == 0 {
				return nil
			}
			return live
		}
	}
	return ps
}

// fusedFire builds the specialized thunk for one pure probe firing,
// with its trigger constants (instruction, when) pre-folded at
// translation time. A promoted counter reduces to an accumulator bump,
// on an observed machine too (see count); every other probe runs the
// behaviour Add resolved for it (see resolve), as in fire.
// The fire sets the ctx trigger fields but does not restore them:
// every observation of ctx (a fire, a hook) re-establishes them first.
// Adaptive probes get the sampling gate folded in front of the fire,
// reading the shared control block live — the same decision sequence
// the interpreter's fire loop makes.
func fusedFire(p *probe, in *isa.Inst, when When) func(*VM) {
	inner := fusedFireAlways(p, in, when)
	if ct := p.ctl; ct != nil {
		return func(v *VM) {
			if ct.gate(v) {
				inner(v)
			}
		}
	}
	return inner
}

// fusedFireAlways is the unconditional fire thunk fusedFire gates.
func fusedFireAlways(p *probe, in *isa.Inst, when When) func(*VM) {
	cost := p.cost
	if p.fn == nil {
		t := p.tal
		return func(v *VM) {
			v.cycles += cost
			v.count(t)
			if v.obsC.Listening() {
				t.publish(v.obsC)
			}
		}
	}
	fn := p.fn
	return func(v *VM) {
		c := &v.ctx
		c.inst, c.when = in, when
		v.cycles += cost
		fn(c)
	}
}

// fuseBefore chains pure before-fires ahead of the operation thunk:
// the probe+op superinstruction.
func fuseBefore(ps []probe, in *isa.Inst, op func(*VM) (stepRes, error)) func(*VM) (stepRes, error) {
	if len(ps) == 1 {
		f := fusedFire(&ps[0], in, BeforeInst)
		return func(v *VM) (stepRes, error) {
			f(v)
			return op(v)
		}
	}
	fires := make([]func(*VM), len(ps))
	for i := range ps {
		fires[i] = fusedFire(&ps[i], in, BeforeInst)
	}
	return func(v *VM) (stepRes, error) {
		for _, f := range fires {
			f(v)
		}
		return op(v)
	}
}

// fuseAfter chains pure after-fires behind the operation thunk: the
// op+probe superinstruction. Fires run only when the operation succeeds
// (an erroring step never reaches its after-probes) and before the
// step-result branch, matching the generic order.
func fuseAfter(ps []probe, in *isa.Inst, op func(*VM) (stepRes, error)) func(*VM) (stepRes, error) {
	if len(ps) == 1 {
		f := fusedFire(&ps[0], in, AfterInst)
		return func(v *VM) (stepRes, error) {
			res, err := op(v)
			if err != nil {
				return res, err
			}
			f(v)
			return res, nil
		}
	}
	fires := make([]func(*VM), len(ps))
	for i := range ps {
		fires[i] = fusedFire(&ps[i], in, AfterInst)
	}
	return func(v *VM) (stepRes, error) {
		res, err := op(v)
		if err != nil {
			return res, err
		}
		for _, f := range fires {
			f(v)
		}
		return res, nil
	}
}

// invalidate drops the cached program of the block owning the
// instruction at off. A currently-running copy notices the cleared valid
// bit at its next probe boundary and exits for retranslation.
func (m *modExec) invalidate(off uint64) {
	if m.bprogs == nil {
		return // interpreted tier: no code cache
	}
	so := uint64(m.bstart[off])
	if bp := m.bprogs[so]; bp != nil {
		bp.valid = false
		m.bprogs[so] = nil
	}
}

// runTranslated is the block-dispatch loop of the translated tier. Block
// boundary work (pending call-after drain, module lookup, translator
// hook, edge/entry probes, fuel check) happens once per dispatch; the
// block body runs from the code cache.
func (v *VM) runTranslated() error {
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

		// Inlined modFor MRU hit: consecutive blocks almost always share a
		// module (the unsigned subtraction also rejects pc < base).
		m := v.lastM
		if m == nil || v.pc-m.base >= uint64(len(m.insts)) {
			m = v.modFor(v.pc)
			if m == nil {
				return v.trap("execution outside code")
			}
		}
		off := v.pc - m.base
		so, idx := off, 0
		if blk := m.blocks[off]; blk != nil {
			// The pace hook fires at block-start dispatch, mirroring the
			// interpreter's check at the same machine state: pending fires
			// drained, previous block's accounting flushed, code cache not
			// yet resolved (so anything the hook invalidates retranslates
			// on this very dispatch).
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
			// Flags and probe storage are (re)read after translation, as in
			// the interpreter: a just-translated block may have installed
			// probes at this very offset.
			if flags := m.flags[off]; flags&(flagEdgeTo|flagBlockEntry) != 0 {
				op := m.probes[off]
				in := m.insts[off]
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
			} else {
				v.curBlock = v.pc
				v.ctx.block = blk
			}
		} else {
			// Mid-block entry (a call fall-through, or a return to the
			// middle of a block): run the owning program from the right
			// step, with no block-boundary work — exactly the
			// interpreter's behaviour at a non-block-start address.
			if m.insts[off] == nil {
				return v.trap("not an instruction boundary")
			}
			so, idx = uint64(m.bstart[off]), int(m.bidx[off])
		}
		v.suppressEdge = false

		// Resolve the cached program only after the translator hook and
		// entry/edge probes ran: anything they installed is fused.
		bp := m.bprogs[so]
		if bp == nil || !bp.valid {
			bp = v.translate(m, so)
		}

		var err error
		switch {
		case v.insts+uint64(len(bp.steps)-idx) > v.fuel:
			err = v.runStepsPrecise(bp, idx)
		case bp.probed:
			err = v.runSteps(bp, idx)
		default:
			err = v.runStepsClean(bp, idx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runStepsClean executes a probe-free block program: the hot path of
// uninstrumented code, with no per-step probe checks at all.
func (v *VM) runStepsClean(bp *blockProg, idx int) error {
	steps := bp.steps
	for k := idx; k < len(steps); k++ {
		res, err := steps[k].run(v)
		if err != nil {
			v.flushAcc(bp, idx, k)
			return err
		}
		if res == stepJump {
			v.flushAcc(bp, idx, k+1)
			return nil
		}
	}
	v.flushAcc(bp, idx, len(steps))
	v.pc = bp.endPC
	return nil
}

// flushAcc credits the batched cycle/instruction accounting of steps
// [base, k) of the program.
func (v *VM) flushAcc(bp *blockProg, base, k int) {
	v.cycles += bp.sufCost[base] - bp.sufCost[k]
	v.insts += uint64(k - base)
}

// runSteps executes the block program from step idx with accounting
// batched between probe boundaries. The caller has verified the fuel
// covers every remaining step.
func (v *VM) runSteps(bp *blockProg, idx int) error {
	steps := bp.steps
	base := idx
	for k := idx; k < len(steps); k++ {
		st := &steps[k]
		if st.before != nil {
			// Sync accounting and PC so the probe observes exactly the
			// interpreter's state.
			v.flushAcc(bp, base, k)
			base = k
			v.pc = st.in.Addr
			v.fire(st.before, st.in, BeforeInst)
			if !bp.valid {
				return v.finishStepSlow(st)
			}
		}
		depthBefore := v.depth
		res, err := st.run(v)
		if err != nil {
			v.flushAcc(bp, base, k)
			return err
		}
		if st.after != nil {
			v.flushAcc(bp, base, k+1)
			base = k + 1
			if st.isCall {
				// Call-after probes fire at the fall-through, once the
				// callee has returned; the dispatcher drains them.
				v.pending = append(v.pending, pendingAfter{
					fall: st.in.Next(), depth: depthBefore,
					probes: st.after, inst: st.in, block: v.ctx.block,
				})
				return nil
			}
			v.pc = st.in.Next()
			v.fire(st.after, st.in, AfterInst)
			if !bp.valid {
				return nil
			}
		}
		if res == stepJump {
			v.flushAcc(bp, base, k+1)
			return nil
		}
	}
	v.flushAcc(bp, base, len(steps))
	v.pc = bp.endPC
	return nil
}

// runStepsPrecise is the exact tail used when the remaining fuel may not
// cover the block: per-step fuel checks and accounting reproduce the
// interpreter's out-of-fuel trap bit for bit.
func (v *VM) runStepsPrecise(bp *blockProg, idx int) error {
	steps := bp.steps
	for k := idx; k < len(steps); k++ {
		st := &steps[k]
		if v.insts >= v.fuel {
			v.pc = st.in.Addr
			return v.trap("out of fuel after %d instructions", v.insts)
		}
		if st.before != nil {
			v.pc = st.in.Addr
			v.fire(st.before, st.in, BeforeInst)
			if !bp.valid {
				return v.finishStepSlow(st)
			}
		}
		depthBefore := v.depth
		res, err := st.run(v)
		if err != nil {
			return err
		}
		v.cycles += st.cost
		v.insts++
		if st.after != nil {
			if st.isCall {
				v.pending = append(v.pending, pendingAfter{
					fall: st.in.Next(), depth: depthBefore,
					probes: st.after, inst: st.in, block: v.ctx.block,
				})
				return nil
			}
			v.pc = st.in.Next()
			v.fire(st.after, st.in, AfterInst)
			if !bp.valid {
				return nil
			}
		}
		if res == stepJump {
			return nil
		}
	}
	v.pc = bp.endPC
	return nil
}

// finishStepSlow completes one step whose block program was invalidated
// by its own before-probe: the instruction runs with per-step accounting
// and a fresh read of the after list (the interpreter re-reads the list
// at fire time), then execution exits to the dispatcher to retranslate.
func (v *VM) finishStepSlow(st *step) error {
	depthBefore := v.depth
	res, err := st.run(v)
	if err != nil {
		return err
	}
	v.cycles += st.cost
	v.insts++
	if st.after != nil {
		after := st.after
		if m := v.modFor(st.in.Addr); m != nil {
			if p := m.probes[st.in.Addr-m.base]; p != nil {
				after = p.after
			}
		}
		if st.isCall {
			v.pending = append(v.pending, pendingAfter{
				fall: st.in.Next(), depth: depthBefore,
				probes: after, inst: st.in, block: v.ctx.block,
			})
			return nil
		}
		v.pc = st.in.Next()
		v.fire(after, st.in, AfterInst)
	}
	if res == stepNext {
		v.pc = st.in.Next()
	}
	return nil
}

func stepNop(*VM) (stepRes, error) { return stepNext, nil }

// compileStep translates one instruction into an operation thunk with
// operands pre-resolved. Thunks replicate exec() exactly, including trap
// PC fidelity: any thunk that can trap restores v.pc to the
// instruction's address first, because the interpreter traps with the
// current instruction's PC.
func compileStep(in *isa.Inst) func(*VM) (stepRes, error) {
	addr := in.Addr
	next := in.Next()
	switch in.Op {
	case isa.Nop:
		return stepNop
	case isa.Mov:
		d := in.Ops[0].Reg
		switch in.Ops[1].Kind {
		case isa.KindReg:
			s := in.Ops[1].Reg
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[s]; return stepNext, nil }
		case isa.KindImm:
			c := uint64(in.Ops[1].Imm)
			return func(v *VM) (stepRes, error) { v.regs[d] = c; return stepNext, nil }
		}
	case isa.Load:
		d, b, o := in.Ops[0].Reg, in.Ops[1].Base, uint64(in.Ops[1].Off)
		return func(v *VM) (stepRes, error) { v.regs[d] = v.mem.Read64(v.regs[b] + o); return stepNext, nil }
	case isa.Store:
		s, b, o := in.Ops[0].Reg, in.Ops[1].Base, uint64(in.Ops[1].Off)
		return func(v *VM) (stepRes, error) { v.mem.Write64(v.regs[b]+o, v.regs[s]); return stepNext, nil }
	case isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr:
		if f := compileALU(in); f != nil {
			return f
		}
	case isa.Div, isa.Rem:
		if f := compileDivRem(in); f != nil {
			return f
		}
	case isa.GetPtr:
		d, b := in.Ops[0].Reg, in.Ops[1].Reg
		disp := uint64(in.Ops[3].Imm)
		switch in.Ops[2].Kind {
		case isa.KindReg:
			i := in.Ops[2].Reg
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[b] + v.regs[i] + disp; return stepNext, nil }
		case isa.KindImm:
			k := uint64(in.Ops[2].Imm) + disp
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[b] + k; return stepNext, nil }
		}
	case isa.Branch:
		if in.Cond != isa.Always {
			cond := in.Cond
			r0, r1 := in.Ops[0].Reg, in.Ops[1].Reg
			tgt := uint64(in.Ops[2].Imm)
			return func(v *VM) (stepRes, error) {
				if cond.Holds(int64(v.regs[r0]), int64(v.regs[r1])) {
					v.pc = tgt
				} else {
					v.pc = next
				}
				return stepJump, nil
			}
		}
		if in.Ops[0].Kind == isa.KindReg {
			r := in.Ops[0].Reg
			return func(v *VM) (stepRes, error) { v.pc = v.regs[r]; return stepJump, nil }
		}
		tgt := uint64(in.Ops[0].Imm)
		return func(v *VM) (stepRes, error) { v.pc = tgt; return stepJump, nil }
	case isa.Call:
		if in.Ops[0].Kind == isa.KindReg {
			r := in.Ops[0].Reg
			return func(v *VM) (stepRes, error) { return v.stepCall(addr, next, v.regs[r]) }
		}
		tgt := uint64(in.Ops[0].Imm)
		return func(v *VM) (stepRes, error) { return v.stepCall(addr, next, tgt) }
	case isa.Return:
		return func(v *VM) (stepRes, error) {
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
			return stepJump, nil
		}
	case isa.Halt:
		return func(v *VM) (stepRes, error) {
			v.pc = addr
			v.halted = true
			return stepJump, nil
		}
	}
	// Fallback for operand shapes with no specialized thunk: run the
	// instruction through the reference interpreter step, which sets
	// v.pc itself (so the thunk always reports a jump).
	return func(v *VM) (stepRes, error) {
		v.pc = addr
		if err := v.exec(in); err != nil {
			return stepJump, err
		}
		return stepJump, nil
	}
}

// stepCall is the shared body of call thunks: intrinsic dispatch, stack
// push, depth accounting and edge suppression, as in exec().
func (v *VM) stepCall(addr, next, target uint64) (stepRes, error) {
	v.pc = addr
	if obj.IsIntrinsic(target) {
		if err := v.intrinsic(target); err != nil {
			return stepJump, err
		}
		v.pc = next
		return stepJump, nil
	}
	sp := v.regs[isa.SP] - 8
	v.regs[isa.SP] = sp
	v.mem.Write64(sp, next)
	v.blockStack = append(v.blockStack, frameBlock{v.curBlock, v.ctx.block})
	v.depth++
	if v.depth > 100000 {
		return stepJump, v.trap("call depth exceeded")
	}
	v.pc = target
	v.suppressEdge = true
	return stepJump, nil
}

// compileALU specializes the non-trapping ALU opcodes on the right-hand
// operand kind; it returns nil for shapes the generic fallback handles.
func compileALU(in *isa.Inst) func(*VM) (stepRes, error) {
	d, a := in.Ops[0].Reg, in.Ops[1].Reg
	switch in.Ops[2].Kind {
	case isa.KindReg:
		b := in.Ops[2].Reg
		switch in.Op {
		case isa.Add:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] + v.regs[b]; return stepNext, nil }
		case isa.Sub:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] - v.regs[b]; return stepNext, nil }
		case isa.Mul:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] * v.regs[b]; return stepNext, nil }
		case isa.And:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] & v.regs[b]; return stepNext, nil }
		case isa.Or:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] | v.regs[b]; return stepNext, nil }
		case isa.Xor:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] ^ v.regs[b]; return stepNext, nil }
		case isa.Shl:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] << (v.regs[b] & 63); return stepNext, nil }
		case isa.Shr:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] >> (v.regs[b] & 63); return stepNext, nil }
		}
	case isa.KindImm:
		c := uint64(in.Ops[2].Imm)
		switch in.Op {
		case isa.Add:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] + c; return stepNext, nil }
		case isa.Sub:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] - c; return stepNext, nil }
		case isa.Mul:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] * c; return stepNext, nil }
		case isa.And:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] & c; return stepNext, nil }
		case isa.Or:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] | c; return stepNext, nil }
		case isa.Xor:
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] ^ c; return stepNext, nil }
		case isa.Shl:
			sh := c & 63
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] << sh; return stepNext, nil }
		case isa.Shr:
			sh := c & 63
			return func(v *VM) (stepRes, error) { v.regs[d] = v.regs[a] >> sh; return stepNext, nil }
		}
	}
	return nil
}

// compileDivRem specializes Div and Rem, which trap on a zero divisor
// with the instruction's own PC, as the interpreter does.
func compileDivRem(in *isa.Inst) func(*VM) (stepRes, error) {
	addr := in.Addr
	d, a := in.Ops[0].Reg, in.Ops[1].Reg
	isRem := in.Op == isa.Rem
	var divisor func(*VM) uint64
	switch in.Ops[2].Kind {
	case isa.KindReg:
		r := in.Ops[2].Reg
		divisor = func(v *VM) uint64 { return v.regs[r] }
	case isa.KindImm:
		c := uint64(in.Ops[2].Imm)
		divisor = func(*VM) uint64 { return c }
	default:
		return nil
	}
	return func(v *VM) (stepRes, error) {
		b := divisor(v)
		if b == 0 {
			v.pc = addr
			return stepJump, v.trap("division by zero")
		}
		if isRem {
			v.regs[d] = uint64(int64(v.regs[a]) % int64(b))
		} else {
			v.regs[d] = uint64(int64(v.regs[a]) / int64(b))
		}
		return stepNext, nil
	}
}
