package vm

// Adaptive instrumentation: per-probe control blocks for sampling
// (fire every Nth hit), mid-run disable (probe ejection) and re-arming,
// plus the cycle-paced hook the overhead governor runs from.
//
// Design constraints, inherited from the tier-equivalence contract:
//
//   - Sampling is a fire-time countdown on a control block shared by
//     every representation of the probe (interpreter lists, translated
//     block programs, pending call-after batches), so both tiers see the
//     identical hit sequence and make identical fire/skip decisions.
//   - A skipped hit charges SampleGateCost and is attributed to the
//     probe's obs slot as a skip, preserving the residual-zero
//     attribution invariant: probe cycles = fires x dispatch cost +
//     skips x gate cost.
//   - Disabling is logical removal: the enable bit is checked at fire
//     time (zero cost when disabled), so an already-pending call-after
//     fire is suppressed if and only if the probe is disabled at the
//     fall-through — identically in both tiers. Disable/re-enable also
//     invalidates the translated blocks the probe was fused into (the
//     dual of mid-run install), so steady-state ejected probes vanish
//     from the code cache entirely.
//   - Control mutations are only legal on the run goroutine: from a
//     probe body, a start hook, or the pace hook. The governor's HTTP
//     re-arm commands are mailboxed and drained at pace points.

import "repro/internal/obs"

// SampleGateCost is charged for each hit a sampling countdown swallows:
// the inlined decrement-and-branch guarding a sampled probe (units;
// sub-cycle, far below any dispatch mechanism).
const SampleGateCost = 2

// ctlSite records one before/after installation point of a probe, so
// control changes can invalidate the translated blocks the probe was
// fused into. Entry and edge lists are read live at dispatch and need no
// invalidation.
type ctlSite struct {
	m   *modExec
	off uint64
}

// probeCtl is the shared adaptive control block of one installed probe.
type probeCtl struct {
	enabled bool
	// stride fires the probe on every stride-th hit; count is the
	// countdown to the next fire. stride <= 1 fires on every hit.
	stride uint64
	count  uint64
	// baseStride is the installation-time stride (the language-level
	// `sample N`); re-arming restores it.
	baseStride uint64
	id         obs.ProbeID
	// tal is the probe's attribution record, where an observed
	// machine counts skips.
	tal   *tally
	sites []ctlSite
}

// gate decides one hit of an adaptive probe: true means fire. Disabled
// probes skip at zero cost; swallowed sample hits charge SampleGateCost
// and are attributed as skips at the next flush. It stays out of line:
// inlined into VM.fire, it crowded the loop's path for ungated probes,
// and the no-collector dispatch gate failed in a quarter of its runs.
//
//go:noinline
func (ct *probeCtl) gate(v *VM) bool {
	if !ct.enabled {
		return false
	}
	if ct.stride <= 1 {
		return true
	}
	ct.count--
	if ct.count == 0 {
		ct.count = ct.stride
		return true
	}
	v.cycles += SampleGateCost
	if v.obsC != nil {
		v.queue(ct.tal)
		ct.tal.skips++
	}
	return false
}

// newCtl allocates a control block for one probe installation, or nil
// when the probe needs none (always-on, non-adaptive machine). The
// countdown starts at the stride, so the probe first fires on hit N,
// then 2N, ... — exactly floor(hits/N) fires.
func (v *VM) newCtl(id obs.ProbeID, stride uint64, tal *tally) *probeCtl {
	if stride <= 1 && !v.adaptive {
		return nil
	}
	if stride == 0 {
		stride = 1
	}
	ct := &probeCtl{enabled: true, stride: stride, count: stride, baseStride: stride, id: id, tal: tal}
	v.ctls = append(v.ctls, ct)
	if id != obs.NoProbe {
		if v.ctlByID == nil {
			v.ctlByID = make(map[obs.ProbeID]*probeCtl)
		}
		v.ctlByID[id] = ct
	}
	return ct
}

// invalidateSites drops the cached translated blocks the probe was fused
// into, forcing retranslation with the new control state.
func (ct *probeCtl) invalidateSites() {
	for _, s := range ct.sites {
		s.m.invalidate(s.off)
	}
}

// ProbeInfo is the adaptive state of one installed probe.
type ProbeInfo struct {
	// ID is the probe's observability ID (obs.NoProbe when the machine
	// runs without a collector; such probes are not addressable by ID).
	ID obs.ProbeID
	// Stride is the current sampling stride; BaseStride the
	// installation-time one.
	Stride, BaseStride uint64
	// Enabled is false while the probe is ejected.
	Enabled bool
}

// AdaptiveProbes lists every probe carrying a control block, in
// installation order. Run-goroutine only (probe bodies, hooks, the pace
// hook).
func (v *VM) AdaptiveProbes() []ProbeInfo {
	out := make([]ProbeInfo, len(v.ctls))
	for i, ct := range v.ctls {
		out[i] = ProbeInfo{ID: ct.id, Stride: ct.stride, BaseStride: ct.baseStride, Enabled: ct.enabled}
	}
	return out
}

// SetProbeStride sets the sampling stride of the adaptive probe with the
// given observability ID and resets its countdown; reports whether the
// probe was found. A stride of 0 restores the installation-time stride.
// Run-goroutine only.
func (v *VM) SetProbeStride(id obs.ProbeID, stride uint64) bool {
	ct := v.ctlByID[id]
	if ct == nil {
		return false
	}
	if stride == 0 {
		stride = ct.baseStride
	}
	ct.stride = stride
	ct.count = stride
	return true
}

// SetProbeEnabled ejects (false) or re-arms (true) the adaptive probe
// with the given observability ID; reports whether the probe was found.
// The change takes effect at the probe's next hit — a pending call-after
// fire is suppressed iff the probe is disabled when the fall-through is
// reached — and invalidates the translated blocks the probe is fused
// into. Re-arming resets the sampling countdown. Run-goroutine only.
func (v *VM) SetProbeEnabled(id obs.ProbeID, enabled bool) bool {
	ct := v.ctlByID[id]
	if ct == nil {
		return false
	}
	if ct.enabled != enabled {
		ct.enabled = enabled
		ct.count = ct.stride
		ct.invalidateSites()
	}
	return true
}

// SetPacer installs a hook called at block-start dispatch whenever at
// least `every` cycle units have elapsed since the previous call. The
// hook runs at the identical machine state on both execution tiers
// (after the pending call-after drain, before the translator hook and
// code-cache resolution, with promoted counters and attribution
// flushed), so decisions it makes are deterministic and
// tier-independent, and a snapshot it takes is exact. The overhead
// governor is its intended user. Must be installed before Run.
func (v *VM) SetPacer(every uint64, fn func()) {
	if every == 0 {
		every = 1
	}
	v.paceEvery = every
	v.nextPace = every
	v.nextTick = min(v.nextPace, v.nextFlush)
	v.pacer = fn
}

// never is the schedule slot of a block-start event the machine does
// not have.
const never = ^uint64(0)

// counterFlushPeriod is how many cycle units an observed machine lets
// pass between block-start flushes, so live snapshots see attribution
// rows move even when no other observation point flushes them. A flush
// costs one Flush per promoted counter and one batched attribution per
// probe that fired since the last one, so the period must span many
// firings of each hot site: at 2^16 units opcode mix on leela, which
// counts at every executed instruction, still ran about 25% slower
// observed than unobserved; at 2^22 the gap is inside the run-to-run
// noise, and at the translated tier's 2–5 G units/s the period is
// still only one or two milliseconds of run time.
const counterFlushPeriod = 1 << 22

// tick runs whatever is due on the block-start schedule — the pace
// hook, which flushes as an observation point, else the periodic
// flush — and schedules the next tick.
func (v *VM) tick() {
	if v.cycles >= v.nextPace {
		v.pace()
	} else {
		v.flush()
	}
	if v.nextFlush != never {
		v.nextFlush = v.cycles + counterFlushPeriod
	}
	v.nextTick = min(v.nextPace, v.nextFlush)
}

// pace runs the pacer at an observation point and schedules the next
// one.
func (v *VM) pace() {
	v.flush()
	v.pacer()
	v.nextPace = v.cycles + v.paceEvery
}
