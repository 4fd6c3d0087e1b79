package cinnamon

import (
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/progs"
	"repro/internal/workload"
)

// The artifact cache must be invisible in results: for every case
// study × victim × backend cell, a cold run (empty process cache), a
// warm run (template replayed from the cache) and a cache-ablated run
// must agree byte for byte on tool output, machine counters and the
// per-probe stats table. This is the cold/warm differential gate for
// the shared-artifact fast path. Every warm run must be a cache hit —
// Forward CFI included, whose analysis writes the tool file its init
// block reads — and two warm sessions of one template must each read
// that file from the start: a shared read cursor would leave the
// second session's vtable empty and flag every call.
func TestArtifactCacheRunsBitIdentical(t *testing.T) {
	pairs := []struct {
		prog, victim string
		pinLoops     bool // loop commands need the Pin loop-detection extension
	}{
		{prog: "instcount_basic", victim: "spin"},
		{prog: "instcount_bb", victim: "loopy"},
		{prog: "opcodemix", victim: "spin"},
		{prog: "loopcoverage", victim: "loopy", pinLoops: true},
		{prog: "useafterfree", victim: "uaf_bug"},
		{prog: "shadowstack", victim: "stack_smash"},
		{prog: "forwardcfi", victim: "indirect_attack"},
	}
	for _, p := range pairs {
		src, err := progs.Source(p.prog)
		if err != nil {
			t.Fatalf("%s: %v", p.prog, err)
		}
		tool, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", p.prog, err)
		}
		m, err := workload.Victim(p.victim)
		if err != nil {
			t.Fatalf("%s: %v", p.victim, err)
		}
		target, err := LoadModules([]*obj.Module{m})
		if err != nil {
			t.Fatalf("%s: %v", p.victim, err)
		}
		for _, b := range Backends() {
			run := func(ablate string) (string, int) {
				rep, err := tool.Run(target, b, RunOptions{
					Stats:            true,
					PinLoopDetection: p.pinLoops,
					Ablate:           ablate,
				})
				if err != nil {
					t.Fatalf("%s on %s via %s (ablate=%q): %v", p.prog, p.victim, b, ablate, err)
				}
				var sb strings.Builder
				sb.WriteString(rep.ToolOutput)
				sb.WriteString("|")
				rep.Stats.WriteTable(&sb)
				return sb.String(), rep.Stats.Build.ArtifactHits
			}
			ref, _ := run("cache")  // cache ablated: the plain build path
			cold, _ := run("")      // populates (or reuses) the shared cache
			warm1, hits1 := run("") // replays the cached template
			warm2, hits2 := run("")
			if cold != ref || warm1 != ref {
				t.Errorf("%s on %s via %s: cached runs diverge from the uncached reference\nref:\n%s\ncold:\n%s\nwarm:\n%s",
					p.prog, p.victim, b, ref, cold, warm1)
			}
			if warm2 != ref {
				t.Errorf("%s on %s via %s: the second session of one template diverges (shared tool-file state?)\nref:\n%s\nwarm:\n%s",
					p.prog, p.victim, b, ref, warm2)
			}
			if hits1 != 1 || hits2 != 1 {
				t.Errorf("%s on %s via %s: warm runs hit the artifact cache %d and %d times, want 1 each",
					p.prog, p.victim, b, hits1, hits2)
			}
		}
	}
}
