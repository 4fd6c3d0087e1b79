package bench

import (
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core/backend"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestInlinedActionSpeedup is the perf regression gate for the
// action-inlining layer: on Janus × leela, the translated tier with
// inlining must beat the same tier with inlining disabled, which runs
// each action's one compiled executor from a clean call. The gated
// workload is opcodemix, four counter probes firing on every
// instruction, whose firings the layer promotes to counters bumped in
// the translated block loop: at least 2.9x (a median of 3.3x measured on
// a 2-vCPU host, against 2.6x when each bump ran from a fused closure).
// The lowering of action bodies, which the layer no longer
// switches, has its own gate (TestCaseStudyLoweringSpeedup in
// internal/core/compile).
//
// Each side of a pair is one whole session, run alternately and
// compared by median (MedianTimes), with the pair count sized to the
// session length. Like the other perf gates it only runs when
// CINNAMON_PERF_GATE is set.
func TestInlinedActionSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the action-inlining perf gate")
	}
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	const want = 2.9
	tool, err := compileTool(progs.OpcodeMix)
	if err != nil {
		t.Fatal(err)
	}
	session := func(ablate backend.Ablation) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			if _, err := backend.Run(tool, prog, backend.Janus, backend.Options{Out: io.Discard, Ablate: ablate}); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
	}
	// About two seconds of sessions per attempt, and at least 15 pairs.
	pairs := 15
	if d := session(backend.AblateInline)() + session(0)(); d < 130*time.Millisecond {
		pairs = int(2*time.Second/(d+1)) | 1
	}
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		plain, inlined := MedianTimes(pairs, session(backend.AblateInline), session(0))
		speedup = plain / inlined
		t.Logf("attempt %d: %d pairs: no-inline %.0f ns, inlined %.0f ns, speedup %.2fx",
			attempt, pairs, plain, inlined, speedup)
		if speedup >= want {
			return
		}
	}
	t.Errorf("inlined actions are only %.2fx faster than no-inline (want >= %.2fx)", speedup, want)
}

// TestAttributionResidualZeroNoInline pins the attribution invariant on
// the escape-hatch path too: with inlining disabled the decomposition
// into app, probe and translation cycles must still leave residual
// exactly zero. (The inline-on case is TestAttributionResidualZero.)
func TestAttributionResidualZeroNoInline(t *testing.T) {
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := vm.New(prog, vm.Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	tool, err := compileTool(progs.InstCountBB)
	if err != nil {
		t.Fatal(err)
	}
	for _, ablate := range []backend.Ablation{0, backend.AblateInline} {
		col := obs.New(obs.Options{})
		res, err := backend.Run(tool, prog, backend.Janus, backend.Options{
			Out:    io.Discard,
			Obs:    col,
			Ablate: ablate,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot(backend.Janus)
		residual := int64(res.Cycles-base.Cycles) - int64(s.ProbeCycles) - int64(s.Build.TranslationCycles)
		if residual != 0 {
			t.Errorf("ablate=%q: residual = %d cycles unattributed (total=%d app=%d probes=%d translation=%d)",
				ablate, residual, res.Cycles, base.Cycles, s.ProbeCycles, s.Build.TranslationCycles)
		}
	}
}
