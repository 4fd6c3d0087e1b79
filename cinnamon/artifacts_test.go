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
// the shared-artifact fast path.
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
			run := func(ablate string) string {
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
				return sb.String()
			}
			ref := run("cache") // cache ablated: the plain build path
			cold := run("")     // populates (or reuses) the shared cache
			warm1 := run("")    // replays the cached template
			warm2 := run("")
			if cold != ref || warm1 != ref || warm2 != ref {
				t.Errorf("%s on %s via %s: cached runs diverge from the uncached reference\nref:\n%s\ncold:\n%s\nwarm:\n%s",
					p.prog, p.victim, b, ref, cold, warm1)
			}
		}
	}
}
