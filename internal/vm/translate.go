package vm

// This file implements the VM's block-translation execution tier: the
// same just-in-time strategy the binary frameworks it models use
// (DynamoRIO fragments, Pin traces). On first entry to a basic block the
// block is decoded into a cached blockProg — one step per instruction
// holding its operation kind, register numbers and immediate and its
// before-probes, with the static cycle cost pre-summed — and every
// subsequent entry runs the cached program in one loop (runSteps). The
// loop's switch executes the common operations inline, and the loop
// fires each step's before-probes ahead of its operation: a lone
// promoted counter is bumped in place, other pure probes fire as they
// are, and generic ones see the machine state synchronized first.
// Calls, returns, halt, division and operand shapes with no inline kind
// run through the reference interpreter's exec, and instructions with
// after-probes through its per-instruction body, out of line
// (stepProbed). modFor, flag loads, probe-table lookups and the fuel
// check move from per-instruction to per-block frequency.
//
// The tier is required to be bit-identical to the reference interpreter
// (runInterp): cycle totals, Result fields, obs attribution, trace
// events, trap text and print output. The conformance oracle treats any
// tier divergence as illegal, so every accounting shortcut below is
// paired with a mechanism that restores exactness at each observation
// point (generic probe firings, traps, dispatcher entries):
//
//   - batched cycle/instruction accounting is flushed from the pre-summed
//     suffix-cost array before any generic probe fires, so a probe body
//     reading Cycles() sees exactly the interpreter's value; pure probes
//     never read it;
//   - when the remaining fuel cannot cover the rest of the block, the
//     loop stops at the fuel boundary and traps there, with the same
//     instruction count and PC as the interpreter's per-instruction
//     check;
//   - an instruction with after-probes runs the interpreter's
//     per-instruction body, reading the live lists; a probe installed
//     into an already-translated block invalidates its cached program
//     (translators install probes mid-run), and a running program
//     notices the invalidation after the generic firing that caused it,
//     finishes that instruction with interpreter semantics and exits to
//     the dispatcher for retranslation.
//
// Pending call-after probes need draining only at dispatcher entries:
// straight-line flow cannot reach a call's fall-through without executing
// the call itself (the fall-through is the very next instruction), and
// every control transfer exits to the dispatcher.

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
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

// opKind is the decoded operation of a step: an inline kind the block
// loop executes in its switch, or one of the out-of-line kinds.
type opKind uint8

const (
	// opExec runs the instruction through the reference interpreter's
	// exec: division and remainder with their trap, and operand shapes
	// with no inline kind.
	opExec opKind = iota
	// opExecExit is opExec for the control transfers with no inline
	// kind — calls, returns and halt — after which the program exits.
	opExecExit
	// opProbed runs an instruction with after-probes out of line, with
	// the interpreter's per-instruction body and live probe lists (see
	// stepProbed).
	opProbed

	opNop
	opMovR
	opMovI
	opLoad
	opStore
	// The eight inline ALU ops with a register right-hand operand, then
	// in the same order with an immediate one.
	opAddR
	opSubR
	opMulR
	opAndR
	opOrR
	opXorR
	opShlR
	opShrR
	opAddI
	opSubI
	opMulI
	opAndI
	opOrI
	opXorI
	opShlI
	opShrI
	opGetPtrR
	opGetPtrI
	// opBranch is a conditional branch, opJump a direct and opJumpR an
	// indirect one. A branch ends its block, so a conditional branch not
	// taken falls through to the program's endPC.
	opBranch
	opJump
	opJumpR
)

// aluKinds maps each ALU opcode with inline kinds to its
// register-operand kind.
var aluKinds = [...]opKind{
	isa.Add: opAddR, isa.Sub: opSubR, isa.Mul: opMulR, isa.And: opAndR,
	isa.Or: opOrR, isa.Xor: opXorR, isa.Shl: opShlR, isa.Shr: opShrR,
}

// step is one decoded instruction of a block program.
type step struct {
	op   opKind
	cond isa.Cond
	// d is the destination (or a store's source) register, a and b the
	// source registers (a a memory operand's base); imm is the
	// immediate, memory offset, getptr displacement (folded with an
	// immediate index) or branch target.
	d, a, b isa.Reg
	// pure is set when every probe of before is pure: the loop then
	// fires them without synchronizing the machine state.
	pure bool
	imm  uint64
	in   *isa.Inst
	// before is the before-probe list of an instruction without
	// after-probes, fired from the block loop ahead of the operation.
	// It is exactly the live list as long as the program is valid: any
	// install into the block invalidates it.
	before []probe
}

// blockProg is a translated basic block: the unit of the code cache.
type blockProg struct {
	m     *modExec
	steps []step
	// sufCost[i] holds the summed instruction cost of steps[i:], so the
	// cost of any executed run [i,k) is one subtraction.
	sufCost []uint64
	// endPC is the fall-through address past the last instruction.
	endPC uint64
	// valid is cleared when a probe is installed into the block; the
	// running program checks it after every generic probe firing.
	valid bool
}

// translate compiles the basic block starting at offset so of module m
// into a blockProg and caches it. Callers must ensure m.blocks[so] != nil.
//
// An instruction with after-probes becomes an opProbed step. Any other
// keeps its decoded operation, with its live before-probes on its step:
// the block loop fires them ahead of the operation, without
// synchronizing the machine state when the inlining layer is on and
// every one of them is pure.
func (v *VM) translate(m *modExec, so uint64) *blockProg {
	insts := m.blocks[so].Insts
	bp := &blockProg{
		m:       m,
		steps:   make([]step, len(insts)),
		sufCost: make([]uint64, len(insts)+1),
		endPC:   insts[len(insts)-1].Next(),
		valid:   true,
	}
	for i, in := range insts {
		st := &bp.steps[i]
		st.in = in
		decode(st, in)
		off := in.Addr - m.base
		f := m.flags[off]
		if f&(flagBefore|flagAfter) == 0 {
			continue
		}
		p := m.probes[off]
		var before, after []probe
		if f&flagBefore != 0 {
			before = liveProbes(p.before)
		}
		if f&flagAfter != 0 {
			if in.Op == isa.Call {
				// Call after-fires resolve at the fall-through via the
				// pending mechanism, which pushes the live list, so a
				// probe re-armed while the callee runs still fires
				// there, exactly as in the interpreter (the fire-time
				// gate suppresses disabled ones).
				after = p.after
			} else {
				after = liveProbes(p.after)
			}
		}
		if after != nil {
			st.op = opProbed
		} else {
			st.before, st.pure = before, v.inline && allPure(before)
		}
	}
	for i := len(insts) - 1; i >= 0; i-- {
		bp.sufCost[i] = bp.sufCost[i+1] + instCost(insts[i].Op)
	}
	m.bprogs[so] = bp
	return bp
}

// decode sets st's operation: an inline kind with its operands, or
// opExec or opExecExit for an instruction that runs through exec.
func decode(st *step, in *isa.Inst) {
	st.op = opExec
	ops := in.Ops
	switch in.Op {
	case isa.Nop:
		st.op = opNop
	case isa.Mov:
		st.d = ops[0].Reg
		switch ops[1].Kind {
		case isa.KindReg:
			st.op, st.a = opMovR, ops[1].Reg
		case isa.KindImm:
			st.op, st.imm = opMovI, uint64(ops[1].Imm)
		}
	case isa.Load, isa.Store:
		st.op = opLoad
		if in.Op == isa.Store {
			st.op = opStore
		}
		st.d, st.a, st.imm = ops[0].Reg, ops[1].Base, uint64(ops[1].Off)
	case isa.Add, isa.Sub, isa.Mul, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr:
		st.d, st.a = ops[0].Reg, ops[1].Reg
		switch ops[2].Kind {
		case isa.KindReg:
			st.op, st.b = aluKinds[in.Op], ops[2].Reg
		case isa.KindImm:
			st.op, st.imm = aluKinds[in.Op]+(opAddI-opAddR), uint64(ops[2].Imm)
		}
	case isa.GetPtr:
		st.d, st.a = ops[0].Reg, ops[1].Reg
		disp := uint64(ops[3].Imm)
		switch ops[2].Kind {
		case isa.KindReg:
			st.op, st.b, st.imm = opGetPtrR, ops[2].Reg, disp
		case isa.KindImm:
			st.op, st.imm = opGetPtrI, uint64(ops[2].Imm)+disp
		}
	case isa.Branch:
		switch {
		case in.Cond != isa.Always:
			st.op, st.cond = opBranch, in.Cond
			st.a, st.b, st.imm = ops[0].Reg, ops[1].Reg, uint64(ops[2].Imm)
		case ops[0].Kind == isa.KindReg:
			st.op, st.a = opJumpR, ops[0].Reg
		default:
			st.op, st.imm = opJump, uint64(ops[0].Imm)
		}
	case isa.Call, isa.Return, isa.Halt:
		st.op = opExecExit
	}
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

// invalidate drops the cached program of the block owning the
// instruction at off. A currently-running copy notices the cleared valid
// bit after the generic probe firing that installed, finishes that
// instruction and exits for retranslation.
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
				v.fireBlockLists(m, off, blk, flags)
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
		if err := v.runSteps(bp, idx); err != nil {
			return err
		}
	}
	return nil
}

// fireBlockLists fires the edge and entry lists of the block starting
// at off, as the translated dispatcher reaches it. A list with no
// enabled probe is skipped. Each count is read as its list is about to
// fire, so an edge probe that re-arms an entry probe sees it fire on
// this very dispatch; a list with one enabled probe fires whole, read
// live, as the interpreter reads it.
func (v *VM) fireBlockLists(m *modExec, off uint64, blk *cfg.Block, flags uint8) {
	op := m.probes[off]
	in := m.insts[off]
	if !v.suppressEdge && flags&flagEdgeTo != 0 {
		for i := range op.edgeIn {
			if e := &op.edgeIn[i]; e.from == v.curBlock {
				if e.live > 0 {
					v.ctx.block = blk
					v.fire(e.probes, in, AtEdge)
				}
				break
			}
		}
	}
	v.curBlock = v.pc
	v.ctx.block = blk
	if flags&flagBlockEntry != 0 && op.entryLive > 0 {
		v.fire(op.entry, in, AtBlockEntry)
	}
}

// runSteps executes the block program from step idx. On a probe-free
// step the loop makes one test besides the switch, which runs the inline
// kinds in place. Cycle and instruction accounting is batched: the steps
// since the last flush are credited in one subtraction (flushAcc)
// before a generic probe fires or an opProbed step runs, which does its
// own, and at every exit.
func (v *VM) runSteps(bp *blockProg, idx int) error {
	steps := bp.steps
	// Stop at the fuel boundary: the interpreter traps before the
	// instruction the fuel cannot cover. The dispatcher has checked
	// that the fuel covers step idx.
	end := len(steps)
	if left := v.fuel - v.insts; uint64(end-idx) > left {
		end = idx + int(left)
	}
	r := &v.regs
	base := idx
	for k := idx; k < end; k++ {
		st := &steps[k]
		if ps := st.before; ps != nil {
			switch p := &ps[0]; {
			case len(ps) == 1 && p.fn == nil:
				// A lone promoted counter is bumped in place, as fire
				// would: gate, charge, count and, when anyone listens,
				// publish.
				if p.ctl == nil || p.ctl.gate(v) {
					v.cycles += p.cost
					v.count(p.tal)
					if v.obsC.Listening() {
						p.tal.publish(v.obsC)
					}
				}
			case st.pure:
				v.fire(ps, st.in, BeforeInst)
			default:
				v.flushAcc(bp, base, k)
				base = k
				if exit, err := v.fireGeneric(bp, st); exit {
					return err
				}
			}
		}
		switch st.op {
		case opNop:
		case opMovR:
			r[st.d] = r[st.a]
		case opMovI:
			r[st.d] = st.imm
		case opLoad:
			r[st.d] = v.mem.Read64(r[st.a] + st.imm)
		case opStore:
			v.mem.Write64(r[st.a]+st.imm, r[st.d])
		case opAddR:
			r[st.d] = r[st.a] + r[st.b]
		case opSubR:
			r[st.d] = r[st.a] - r[st.b]
		case opMulR:
			r[st.d] = r[st.a] * r[st.b]
		case opAndR:
			r[st.d] = r[st.a] & r[st.b]
		case opOrR:
			r[st.d] = r[st.a] | r[st.b]
		case opXorR:
			r[st.d] = r[st.a] ^ r[st.b]
		case opShlR:
			r[st.d] = r[st.a] << (r[st.b] & 63)
		case opShrR:
			r[st.d] = r[st.a] >> (r[st.b] & 63)
		case opAddI:
			r[st.d] = r[st.a] + st.imm
		case opSubI:
			r[st.d] = r[st.a] - st.imm
		case opMulI:
			r[st.d] = r[st.a] * st.imm
		case opAndI:
			r[st.d] = r[st.a] & st.imm
		case opOrI:
			r[st.d] = r[st.a] | st.imm
		case opXorI:
			r[st.d] = r[st.a] ^ st.imm
		case opShlI:
			r[st.d] = r[st.a] << (st.imm & 63)
		case opShrI:
			r[st.d] = r[st.a] >> (st.imm & 63)
		case opGetPtrR:
			r[st.d] = r[st.a] + r[st.b] + st.imm
		case opGetPtrI:
			r[st.d] = r[st.a] + st.imm
		case opBranch:
			v.pc = bp.endPC
			if st.cond.Holds(int64(r[st.a]), int64(r[st.b])) {
				v.pc = st.imm
			}
			v.flushAcc(bp, base, k+1)
			return nil
		case opJump:
			v.pc = st.imm
			v.flushAcc(bp, base, k+1)
			return nil
		case opJumpR:
			v.pc = r[st.a]
			v.flushAcc(bp, base, k+1)
			return nil
		case opExec, opExecExit:
			v.pc = st.in.Addr
			if err := v.exec(st.in); err != nil {
				v.flushAcc(bp, base, k)
				return err
			}
			if st.op == opExecExit {
				v.flushAcc(bp, base, k+1)
				return nil
			}
		default:
			v.flushAcc(bp, base, k)
			base = k + 1
			if exit, err := v.stepProbed(bp, st); exit {
				return err
			}
		}
	}
	v.flushAcc(bp, base, end)
	if end < len(steps) {
		v.pc = steps[end].in.Addr
		return v.trap("out of fuel after %d instructions", v.insts)
	}
	v.pc = bp.endPC
	return nil
}

// flushAcc credits the batched cycle/instruction accounting of steps
// [base, k) of the program.
func (v *VM) flushAcc(bp *blockProg, base, k int) {
	v.cycles += bp.sufCost[base] - bp.sufCost[k]
	v.insts += uint64(k - base)
}

// fireGeneric fires the before-list of a step whose list is generic
// from the block loop, with the machine state synchronized (the loop
// has credited every step before it) and the list read live, as the
// interpreter reads it: a probe body may re-arm a later probe of the
// list. A body may also install into this very block; then the
// instruction finishes out of line and exit is set, so the program
// stops for retranslation.
func (v *VM) fireGeneric(bp *blockProg, st *step) (exit bool, err error) {
	in := st.in
	v.pc = in.Addr
	off := in.Addr - bp.m.base
	flags := bp.m.flags[off]
	v.fire(bp.m.probes[off].before, in, BeforeInst)
	if bp.valid {
		return false, nil
	}
	return true, v.finish(bp.m, in, flags)
}

// stepProbed runs an opProbed step out of line with the interpreter's
// per-instruction body, reading the live probe lists, and its own
// accounting (the loop has credited every step before it). exit reports
// that the program must stop here: an error, a control transfer, or an
// invalidated program.
func (v *VM) stepProbed(bp *blockProg, st *step) (exit bool, err error) {
	in := st.in
	v.pc = in.Addr
	off := in.Addr - bp.m.base
	flags := bp.m.flags[off]
	if flags&flagBefore != 0 {
		v.fire(bp.m.probes[off].before, in, BeforeInst)
	}
	if err := v.finish(bp.m, in, flags); err != nil {
		return true, err
	}
	return in.Op.IsControlFlow() || !bp.valid, nil
}

// finish completes an instruction out of line as the interpreter does
// once its before-probes have fired: the operation through exec, its
// own accounting, then the live after-list if the flags, read before
// the before-probes fired, have after-probes. A call's after-probes are
// pushed pending, to fire at its fall-through once the callee returns;
// the dispatcher drains them.
func (v *VM) finish(m *modExec, in *isa.Inst, flags uint8) error {
	depthBefore := v.depth
	if err := v.exec(in); err != nil {
		return err
	}
	v.cycles += instCost(in.Op)
	v.insts++
	if flags&flagAfter != 0 {
		after := m.probes[in.Addr-m.base].after
		if in.Op == isa.Call {
			v.pending = append(v.pending, pendingAfter{
				fall: in.Next(), depth: depthBefore, probes: after,
				inst: in, block: v.ctx.block,
			})
		} else {
			v.fire(after, in, AfterInst)
		}
	}
	return nil
}
