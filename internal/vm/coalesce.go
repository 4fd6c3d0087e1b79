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
