package vm

import "repro/internal/obs"

// Share attributes one constituent placement of a coalesced probe: a
// merged probe fires once but reports one row per constituent, each
// with its own dispatch cost, so the attribution table is row-for-row
// identical to installing the constituents separately. The probe's
// total cycle charge is the sum of its shares' costs.
type Share struct {
	ID   obs.ProbeID
	Cost uint64
}

// fireObs attributes one firing: per-share for coalesced probes, a
// single row otherwise. The nil check keeps uncoalesced dispatch on
// the exact pre-existing path.
func (p *probe) fireObs(o *obs.Collector, pc uint64) {
	if p.shares == nil {
		o.Fire(p.id, p.cost, pc)
		return
	}
	for _, s := range p.shares {
		o.Fire(s.ID, s.Cost, pc)
	}
}

// publish sends one promoted-counter firing's trace events, one per
// share for a coalesced probe, without counting the firing: its
// attribution waits in the accumulator for attribute.
func (sp *ProbeSpec) publish(o *obs.Collector, pc uint64) {
	if sp.shares == nil {
		o.Event(sp.id, sp.cost, pc)
		return
	}
	for _, s := range sp.shares {
		o.Event(s.ID, s.Cost, pc)
	}
}

// attribute counts the accumulator's pending firings in one batch: one
// FireN per row, so each share is charged its own cost per firing.
func (sp *ProbeSpec) attribute(o *obs.Collector) {
	n := uint64(sp.acc)
	if sp.shares == nil {
		o.FireN(sp.id, n, sp.cost)
		return
	}
	for _, s := range sp.shares {
		o.FireN(s.ID, n, s.Cost)
	}
}
