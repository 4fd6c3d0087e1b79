package backend

import (
	"strings"
	"testing"

	"repro/internal/core/artifacts"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/obs"
	"repro/internal/progs"
)

// TestTemplateFidelity holds a recorded engine.Template to the cold build
// it was recorded from, for every case study on every backend that
// accepts it, with the placement-IR passes on and off: each
// instantiation's rule table prints as the cold build's does, sessions
// instantiated from the template run to the cold run's output, and two
// instantiations share no cells — firing every action of one leaves the
// other's output unchanged.
func TestTemplateFidelity(t *testing.T) {
	for _, name := range progs.Names() {
		prog := caseStudyVictim(t, name)
		tool := compile(t, name)
		for _, b := range Backends() {
			for _, ablate := range []Ablation{0, AblateIROpt} {
				opts := Options{Ablate: ablate}
				pl := placerFor(b, prog, opts)
				if pl == nil {
					continue // not accepted
				}
				eopts := engineOptions(opts)
				tmpl, rs, _, err := engine.BuildTemplate(tool, prog, pl, eopts)
				if err != nil {
					continue // not accepted (loop coverage on plain Pin)
				}
				cell := name + " on " + b + " ablate=" + ablate.String()

				var drives [2]string
				for i := range drives {
					var out strings.Builder
					eopts.Out = &out
					irs, _, err := tmpl.Instantiate(eopts)
					if err != nil {
						t.Fatalf("%s: Instantiate: %v", cell, err)
					}
					if got, want := irs.String(), rs.String(); got != want {
						t.Errorf("%s: instantiated rule table differs from the cold build's:\n--- got ---\n%s--- want ---\n%s", cell, got, want)
					}
					drive(irs)
					drives[i] = out.String()
				}
				if drives[0] != drives[1] {
					t.Errorf("%s: second instantiation saw the first's cells:\nfirst:  %q\nsecond: %q", cell, drives[0], drives[1])
				}

				var cold strings.Builder
				if _, err := Run(tool, prog, b, Options{Out: &cold, Ablate: ablate}); err != nil {
					t.Fatalf("%s: cold run: %v", cell, err)
				}
				cache := artifacts.New(artifacts.Options{})
				cache.PutTemplate(artifacts.TemplateKey{Tool: tool, Prog: prog, Backend: b, NoIROpt: eopts.NoIROpt}, tmpl)
				for i := 0; i < 2; i++ {
					var out strings.Builder
					col := obs.New(obs.Options{})
					if _, err := Run(tool, prog, b, Options{Out: &out, Ablate: ablate, Artifacts: cache, Obs: col}); err != nil {
						t.Fatalf("%s: session %d: %v", cell, i, err)
					}
					if hits := col.Snapshot(b).Build.ArtifactHits; hits != 1 {
						t.Errorf("%s: session %d made %d template hits, want 1", cell, i, hits)
					}
					if out.String() != cold.String() {
						t.Errorf("%s: session %d output differs from the cold run's:\ngot:  %q\nwant: %q", cell, i, out.String(), cold.String())
					}
				}
			}
		}
	}
}

// drive runs a rule table without a machine: the init blocks, every
// rule's action once with zeroed dynamic attributes, then the exit
// blocks.
func drive(rs *placement.RuleSet) {
	for _, fn := range rs.Inits {
		fn()
	}
	for _, r := range rs.Rules() {
		r.Action.Exec(make([]value.Value, len(r.Action.DynAttrs)))
	}
	for _, fn := range rs.Finis {
		fn()
	}
}
