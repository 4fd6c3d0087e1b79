package backend

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/engine"
	"repro/internal/obs"
	"repro/internal/progs"
)

var update = flag.Bool("update", false, "rewrite the attribution golden files")

// attributionExtra rounds the case studies out with what none of them
// places: a same-site run of counters the passes coalesce into one
// probe (its shares differ in dispatch mechanism on Janus, since only
// the first body is simple enough for an inlined call), and a sampled
// probe whose gate swallows hits.
const attributionExtra = `
uint64 a = 0;
uint64 b = 0;
uint64 c = 0;
uint64 s = 0;
inst I where (I.opcode == Add) {
  before I {
    a = a + 1;
  }
}
inst I where (I.opcode == Add) {
  before I {
    b = b + 1;
    c = c + 2;
    a = a + 3;
  }
}
inst I where (I.opcode == Load) {
  before I sample 3 {
    s = s + 1;
  }
}
exit {
  print(a, b, c, s);
}
`

// TestAttributionGolden pins every backend's attribution table from one
// commit to the next: for each case study (plus attributionExtra) on
// janus, dyninst, pin and pin with loop detection, the run's cycles,
// the build statistics, one line per report row with every ProbeMeta
// field and counter, and the untracked bucket. Regenerate with -update
// only when a change is meant to move a row or a price.
func TestAttributionGolden(t *testing.T) {
	type config struct {
		name    string
		backend string
		loops   bool
	}
	configs := []config{
		{"janus", Janus, false},
		{"dyninst", Dyninst, false},
		{"pin", Pin, false},
		{"pin-loops", Pin, true},
	}
	names := append(progs.Names(), "extra")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var tool *engine.CompiledTool
			load := func() *cfg.Program { return loadVictim(t, "loopy") }
			if name == "extra" {
				var err error
				if tool, err = engine.Compile(attributionExtra); err != nil {
					t.Fatal(err)
				}
			} else {
				tool = compile(t, name)
				load = func() *cfg.Program { return caseStudyVictim(t, name) }
			}
			var b strings.Builder
			for _, c := range configs {
				prog := load()
				col := obs.New(obs.Options{})
				fmt.Fprintf(&b, "== %s ==\n", c.name)
				res, err := Run(tool, prog, c.backend, Options{Out: io.Discard, Obs: col, PinLoopDetection: c.loops})
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				s := col.Snapshot(c.backend)
				fmt.Fprintf(&b, "run cycles=%d insts=%d exit=%d\n", res.Cycles, res.Insts, res.ExitCode)
				fmt.Fprintf(&b, "build %+v\n", s.Build)
				for _, p := range s.Probes {
					fmt.Fprintf(&b, "%d %q %s %s addr=%#x cost=%d fires=%d skips=%d cycles=%d\n",
						p.ID, p.Label, p.Trigger, p.Mechanism, p.Addr, p.DispatchCost, p.Fires, p.Skips, p.Cycles)
				}
				fmt.Fprintf(&b, "untracked fires=%d skips=%d cycles=%d\n", s.UntrackedFires, s.UntrackedSkips, s.UntrackedCycles)
			}
			got := b.String()

			path := filepath.Join("testdata", "attribution", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("attribution drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
