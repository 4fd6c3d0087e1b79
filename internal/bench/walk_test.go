package bench

import (
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/progs"
	"repro/internal/workload"
)

// TestCompiledWalkSpeedup is the perf gate for the compiled
// instrumentation-time walk: uncached set-up (backend.Prepare, no
// artifact cache) of every case study on every backend that accepts it,
// on leela, must beat the same set-up under -ablate=compile, whose walk
// interprets every command's where clause and analysis code per CFE
// instance, by at least 2.5x. On a 2-vCPU host it read 4.10-4.45x, and
// 0.91-0.97x with a walk that interprets (see EXPERIMENTS.md).
// One side of a pair is one pass of all those set-ups, run alternately
// and compared by median (MedianTimes). Like the other perf gates it only
// runs when CINNAMON_PERF_GATE is set.
func TestCompiledWalkSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the compiled-walk perf gate")
	}
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	const want = 2.5
	type setup struct {
		tool    *engine.CompiledTool
		backend string
	}
	var setups []setup
	for _, name := range progs.Names() {
		tool, err := compileTool(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backend.Backends() {
			if backend.Prepare(tool, prog, b, backend.Options{Out: io.Discard}) == nil {
				setups = append(setups, setup{tool, b})
			}
		}
	}
	pass := func(ablate backend.Ablation) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for _, s := range setups {
				if err := backend.Prepare(s.tool, prog, s.backend, backend.Options{Out: io.Discard, Ablate: ablate}); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
	}
	// About two seconds of passes per attempt, and at least 15 pairs.
	pairs := 15
	if d := pass(backend.AblateCompile)() + pass(0)(); d < 130*time.Millisecond {
		pairs = int(2*time.Second/(d+1)) | 1
	}
	var speedup float64
	for attempt := 0; attempt < 3; attempt++ {
		interp, compiled := MedianTimes(pairs, pass(backend.AblateCompile), pass(0))
		speedup = interp / compiled
		t.Logf("attempt %d: %d pairs of %d set-ups: interpreted walk %.0f ns, compiled walk %.0f ns, speedup %.2fx",
			attempt, pairs, len(setups), interp, compiled, speedup)
		if speedup >= want {
			return
		}
	}
	t.Errorf("the compiled walk's set-up is only %.2fx faster than the interpreted walk's (want >= %.2fx)", speedup, want)
}
