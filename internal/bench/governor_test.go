package bench

import (
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/backend"
	"repro/internal/governor"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestGovernedSessionGate is the perf gate for governed sessions, on
// the fleet's session shape: the spin victim looped 20 000 times on
// janus under a 5% budget, from a warm artifact cache. Loop coverage's
// block-entry probe on the loop's inner block is ejected early, and an
// ejected entry probe must cost the host nothing: governed Loop
// coverage may take at most 1.4x the time of governed Inst count
// (medians of 1.25–1.28x measured on a 2-vCPU host, against 1.55–1.64x
// when the dispatcher still ran the ejected probe's list and a pace
// copied a fresh report). Sessions run alternately and are compared by
// median (MedianTimes). Like the other perf gates it only runs when
// CINNAMON_PERF_GATE is set.
func TestGovernedSessionGate(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the governed-session perf gate")
	}
	const want = 1.4
	m, err := workload.LoopedVictim("spin", 20000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := obj.Load([]*obj.Module{m}, vm.RuntimeExterns())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cache := artifacts.New(artifacts.Options{})
	session := func(name string) func() time.Duration {
		tool, err := compileTool(name)
		if err != nil {
			t.Fatal(err)
		}
		return func() time.Duration {
			start := time.Now()
			col := obs.New(obs.Options{})
			g, err := governor.New(governor.Config{Budget: 0.05, Collector: col})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := backend.Run(tool, prog, backend.Janus, backend.Options{
				Out: io.Discard, Obs: col, Adaptive: true, OnMachine: g.Attach, Artifacts: cache,
			}); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
	}
	ic, lc := session(progs.InstCountBasic), session(progs.LoopCoverage)
	ic()
	lc()
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		icNs, lcNs := MedianTimes(61, ic, lc)
		ratio = lcNs / icNs
		t.Logf("attempt %d: governed instcount_basic %.0f ns, loopcoverage %.0f ns, ratio %.2fx",
			attempt, icNs, lcNs, ratio)
		if ratio <= want {
			return
		}
	}
	t.Errorf("governed loopcoverage takes %.2fx governed instcount_basic (want <= %.2fx)", ratio, want)
}
