package bench

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core/artifacts"
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

// TestPinPrepareBuildsNoMachine pins that a dry-run set-up builds no
// machine on any backend: a template-hit backend.Prepare on Pin, whose
// framework used to build its machine when it opened, may allocate at
// most 1.5x what the same Prepare allocates on Dyninst, which builds its
// machine only when the rewritten binary runs. Measured on leela for
// three case studies; while Pin built its machine there, it read 17.2x,
// 2.2x and 3.6x Dyninst's bytes per op on them (see EXPERIMENTS.md).
func TestPinPrepareBuildsNoMachine(t *testing.T) {
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := BuildBenchmark(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	const ops, limit = 20, 1.5
	// bytesPerOp primes a fresh artifact cache with one Prepare and
	// returns the bytes each later, template-hit Prepare allocates.
	bytesPerOp := func(tool *engine.CompiledTool, b string) uint64 {
		cache := artifacts.New(artifacts.Options{})
		opts := backend.Options{Out: io.Discard, Artifacts: cache}
		if err := backend.Prepare(tool, prog, b, opts); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if err := backend.Prepare(tool, prog, b, opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if hits := cache.Stats().TemplateHits; hits != ops {
			t.Fatalf("%s: %d template hits in %d Prepares", b, hits, ops)
		}
		return (after.TotalAlloc - before.TotalAlloc) / ops
	}
	for _, name := range []string{progs.ForwardCFI, progs.OpcodeMix, progs.UseAfterFree} {
		tool, err := compileTool(name)
		if err != nil {
			t.Fatal(err)
		}
		pin, dyn := bytesPerOp(tool, backend.Pin), bytesPerOp(tool, backend.Dyninst)
		t.Logf("%s: Pin %d B/op, Dyninst %d B/op", name, pin, dyn)
		if float64(pin) > limit*float64(dyn) {
			t.Errorf("%s: a template-hit Pin Prepare allocates %d B/op, %.1fx Dyninst's %d (want <= %.1fx)",
				name, pin, float64(pin)/float64(dyn), dyn, limit)
		}
	}
}
