package backend

import (
	"testing"

	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/progs"
)

// TestCaseStudiesOnFastTier pins that every action of every case study
// runs its compiled executor from a specialized probe: under default
// options, each rule each accepted backend places — merged constituents
// included — is dispatched as MechFast or MechCounter, never through a
// generic clean call.
func TestCaseStudiesOnFastTier(t *testing.T) {
	for _, name := range progs.Names() {
		prog := caseStudyVictim(t, name)
		tool := compile(t, name)
		for _, b := range Backends() {
			pl := placerFor(b, prog, Options{})
			if pl == nil {
				continue // not accepted
			}
			rs, _, err := engine.BuildRules(tool, prog, pl, engineOptions(Options{}))
			if err != nil {
				continue // not accepted (loop coverage on plain Pin)
			}
			placed := 0
			for _, r := range rs.Rules() {
				for _, p := range append([]*placement.Rule{r}, r.Merged...) {
					placed++
					if p.Mechanism != placement.MechFast && p.Mechanism != placement.MechCounter {
						t.Errorf("%s on %s: %q at %#x dispatches mech=%s", name, b, p.Action.Label, p.SiteAddr(), p.Mechanism)
					}
				}
			}
			if placed == 0 {
				t.Errorf("%s on %s placed no rules", name, b)
			}
		}
	}
}
