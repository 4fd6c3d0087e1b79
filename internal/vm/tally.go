package vm

import "repro/internal/obs"

// Share describes one constituent placement of a coalesced probe: a
// merged probe fires once but reports one row per constituent, each
// with its own label, mechanism and dispatch cost, so the attribution
// table is row-for-row identical to installing the constituents
// separately. The probe's total cycle charge is the sum of its shares'
// costs.
type Share struct {
	Label, Mechanism string
	Cost             uint64
}

// row is the registered attribution row of one share.
type row struct {
	id   obs.ProbeID
	cost uint64
}

// tally is the VM-owned attribution record of one installed probe. On
// a machine with a collector every probe has one; a promoted counter
// has one on any inlining machine, because its pending fires are also
// its accumulator. A firing only bumps the tally and, when anyone is
// listening, publishes its trace event; the collector sees the pending
// fires and skips at the machine's flush points (see VM.flush), one
// FireN per row and one SkipN. Since a firing of a probe is always
// attributed as its static cost, n pending fires attribute exactly as
// n single ones would.
type tally struct {
	// fires and skips are the firings and swallowed sample hits not yet
	// attributed.
	fires, skips uint64
	// queued is set while the tally waits in VM.pend.
	queued bool
	id     obs.ProbeID
	cost   uint64
	// shares, when non-empty, attribute each firing of this coalesced
	// probe to its constituent placements' rows (cost is their sum).
	shares []row
	// pc is the address each firing's trace event reports: the probe's
	// site, or the fall-through for an after-probe.
	pc uint64
	// counter is a promoted counter's Probe.Flush (nil otherwise):
	// n pending fires are one counter(n).
	counter func(n int64)
}

// count records one firing of a promoted counter: the accumulator bump
// that stands in for its body and, on an observed machine, for its
// attribution. Callers publish the firing's trace event themselves,
// behind Listening, so that count stays small enough to inline.
func (v *VM) count(t *tally) {
	if t.fires == 0 {
		v.dirty = append(v.dirty, t)
	}
	t.fires++
}

// counted is count with the trace event: the fire loop's out-of-line
// counter path, which keeps the loop itself small.
func (v *VM) counted(t *tally) {
	v.count(t)
	if v.obsC.Listening() {
		t.publish(v.obsC)
	}
}

// fired records one firing of a non-counter probe on an observed
// machine and publishes its trace event. Like counted it stays out of
// line: inlined into the closure resolve builds, it made collector-
// attached runs measurably slower.
func (v *VM) fired(t *tally) {
	v.queue(t)
	t.fires++
	if v.obsC.Listening() {
		t.publish(v.obsC)
	}
}

// queue puts t on the pending list unless it already waits there: an
// observed machine calls it before it bumps the pending fires or skips
// of a tally, except a promoted counter's fires, which wait in the
// dirty list.
func (v *VM) queue(t *tally) {
	if !t.queued {
		t.queued = true
		v.pend = append(v.pend, t)
	}
}

// flushCounters applies every promoted counter's pending fires (see
// Probe.Flush), attributes them when a collector is attached, and
// empties the dirty list. Flushes and attributions are additive, so
// drain order does not affect the result.
func (v *VM) flushCounters() {
	for _, t := range v.dirty {
		t.counter(int64(t.fires))
		if v.obsC != nil {
			t.attribute(v.obsC)
		}
		t.fires = 0
	}
	v.dirty = v.dirty[:0]
}

// flush is an observation point for the collector: promoted counters
// flush, and every pending fire and skip is attributed. The machine
// flushes at the periodic tick, the pace hook, traps, a cooperative
// stop and Run exit.
func (v *VM) flush() {
	if len(v.dirty) > 0 {
		v.flushCounters()
	}
	for _, t := range v.pend {
		t.attribute(v.obsC)
		t.queued = false
	}
	v.pend = v.pend[:0]
}

// attribute hands the tally's pending fires and skips to the collector
// and clears them: one FireN per row, so each share is charged its own
// cost per firing, and one SkipN.
func (t *tally) attribute(o *obs.Collector) {
	if n := t.fires; n > 0 {
		if len(t.shares) == 0 {
			o.FireN(t.id, n, t.cost)
		} else {
			for _, s := range t.shares {
				o.FireN(s.id, n, s.cost)
			}
		}
		t.fires = 0
	}
	if t.skips > 0 {
		o.SkipN(t.id, t.skips, SampleGateCost)
		t.skips = 0
	}
}

// publish sends one firing's trace events, one per share for a
// coalesced probe, without counting the firing.
func (t *tally) publish(o *obs.Collector) {
	if len(t.shares) == 0 {
		o.Event(t.id, t.cost, t.pc)
		return
	}
	for _, s := range t.shares {
		o.Event(s.id, s.cost, t.pc)
	}
}
