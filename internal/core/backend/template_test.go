package backend

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core/artifacts"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/obs"
	"repro/internal/progs"
)

// TestTemplateFidelity holds a recorded engine.Template to a fresh build
// and to the interpreter walk (-ablate=compile), for every case study on
// every backend that accepts it, with the placement-IR passes on and
// off: each instantiation's rule table prints as a fresh build's does,
// two instantiations share no cells — driving every action of one leaves
// the other's output unchanged — and sessions run from a cache primed
// with the template are template hits that print what the interpreted
// run prints.
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
				tmpl, err := engine.BuildTemplate(tool, prog, pl, eopts)
				if err != nil {
					continue // not accepted (loop coverage on plain Pin)
				}
				cell := name + " on " + b + " ablate=" + ablate.String()
				fresh, _, err := engine.BuildRules(tool, prog, placerFor(b, prog, opts), eopts)
				if err != nil {
					t.Fatalf("%s: fresh build: %v", cell, err)
				}

				var drives [2]string
				for i := range drives {
					var out strings.Builder
					eopts.Out = &out
					irs, _, err := tmpl.Instantiate(eopts)
					if err != nil {
						t.Fatalf("%s: Instantiate: %v", cell, err)
					}
					if got, want := irs.String(), fresh.String(); got != want {
						t.Errorf("%s: instantiated rule table differs from a fresh build's:\n--- got ---\n%s--- want ---\n%s", cell, got, want)
					}
					drive(irs)
					drives[i] = out.String()
				}
				if drives[0] != drives[1] {
					t.Errorf("%s: second instantiation saw the first's cells:\nfirst:  %q\nsecond: %q", cell, drives[0], drives[1])
				}

				var ref strings.Builder
				if _, err := Run(tool, prog, b, Options{Out: &ref, Ablate: ablate | AblateCompile}); err != nil {
					t.Fatalf("%s: interpreted run: %v", cell, err)
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
					if out.String() != ref.String() {
						t.Errorf("%s: session %d output differs from the interpreted run's:\ngot:  %q\nwant: %q", cell, i, out.String(), ref.String())
					}
				}
			}
		}
	}
}

// finalWriter is a tool output writer whose collection is observable
// through a finalizer.
type finalWriter struct{ buf []byte }

func (w *finalWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestCachedTemplateReleasesSession runs one session, with and without
// an artifact cache, and requires its output writer to be collectable
// once only the cache is left: a cached template must keep none of the
// session's state (cells, frames, Instance, writer) reachable.
func TestCachedTemplateReleasesSession(t *testing.T) {
	for _, name := range []string{progs.OpcodeMix, progs.LoopCoverage} {
		for _, cached := range []bool{false, true} {
			prog := caseStudyVictim(t, name)
			tool := compile(t, name)
			cache := artifacts.New(artifacts.Options{})
			freed := make(chan struct{})
			func() {
				w := &finalWriter{}
				runtime.SetFinalizer(w, func(*finalWriter) { close(freed) })
				opts := Options{Out: w}
				if cached {
					opts.Artifacts = cache
				}
				if _, err := Run(tool, prog, Janus, opts); err != nil {
					t.Fatal(err)
				}
			}()
			collected := false
			for i := 0; i < 5 && !collected; i++ {
				runtime.GC()
				select {
				case <-freed:
					collected = true
				case <-time.After(20 * time.Millisecond):
				}
			}
			if !collected {
				t.Errorf("%s (cached=%v): the session's writer is still reachable after five collections", name, cached)
			}
			if cached && cache.Stats().Templates != 1 {
				t.Errorf("%s: cache holds %d templates, want 1", name, cache.Stats().Templates)
			}
			runtime.KeepAlive(cache)
		}
	}
}

// TestAnalysisOutputBeforeErrorKept runs tools whose analysis code
// prints and then fails at instrumentation time — in an analysis
// statement (a division by zero, an out-of-range vector store), in a
// command's where clause, in an action's static where clause, and in a
// defer-safe one, which the hoisting pass reports after the walk: every
// backend, compiled, uncached and interpreted, must print the lines
// printed before the failure and report the same error. A case with no
// fixed output prints once per instruction the backend sees; its runs
// must print what the interpreted walk prints.
func TestAnalysisOutputBeforeErrorKept(t *testing.T) {
	for _, c := range []struct {
		name, src, err, out string
	}{
		{"analysis statement", `uint64 n = 0;
inst I {
  print("seen");
  n = n + 1;
  uint64 z = 0;
  if (n == 3) {
    print(n / z);
  }
}
`, "cinnamon: 7:13: division by zero", "seen\nseen\nseen\n"},
		{"vector store", `vector<int> v;
inst I {
  print("seen");
  v.add(1);
  if (v.size() == 3) {
    v[5] = 0;
  }
}
`, "cinnamon: 6:6: vector index 5 out of range [0,3)", "seen\nseen\nseen\n"},
		{"command where", `uint64 n = 0;
inst I where (I.size / (3 - n) >= 0) {
  print("seen");
  n = n + 1;
}
`, "cinnamon: 2:22: division by zero", "seen\nseen\nseen\n"},
		{"action where", `uint64 n = 0;
inst I {
  print("seen");
  n = n + 1;
  before I where (10 / (3 - n) > 0) {
    n = n + 1;
  }
}
`, "cinnamon: 5:22: division by zero", "seen\nseen\nseen\n"},
		{"deferred action where", `inst I {
  print("seen");
  before I where (I.size / I.numops > 0) {
    print("fired");
  }
}
`, "cinnamon: 3:26: division by zero", ""},
	} {
		tool, err := engine.Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prog := loadVictim(t, "loopy")
		for _, b := range Backends() {
			want := c.out
			for _, ablate := range []Ablation{AblateCompile, 0, AblateCache, AblateIROpt} {
				var out strings.Builder
				_, err := Run(tool, prog, b, Options{Out: &out, Ablate: ablate, Artifacts: artifacts.New(artifacts.Options{})})
				if err == nil || err.Error() != c.err {
					t.Errorf("%s on %s ablate=%s: error = %v, want %s", c.name, b, ablate, err, c.err)
				}
				if want == "" {
					want = out.String()
					if !strings.HasPrefix(want, "seen\n") {
						t.Errorf("%s on %s: the interpreted walk printed %q before failing", c.name, b, want)
					}
				}
				if got := out.String(); got != want {
					t.Errorf("%s on %s ablate=%s: output = %q, want %q", c.name, b, ablate, got, want)
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
