package bench

import (
	"io"
	"os"
	"testing"

	"repro/internal/core/backend"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestInlinedActionSpeedup is the perf regression gate for the
// action-inlining layer: on Janus × leela, the translated tier with
// inlining must beat the same tier with inlining disabled, which runs
// every action through the generic lowering in a clean call. Two
// workloads are gated:
//
//   - opcodemix: four counter probes firing on every instruction, at
//     least 1.5x (measured headroom is ~3-5x);
//   - loopcoverage: the Figure 6 profiler, whose per-block action walks
//     a vector and bumps dict entries in a loop — the fast tier's
//     register locals, int64 dict maps, native counted loop and fused
//     dict bump — at least 2.5x (measured headroom is ~6-8x);
//   - forwardcfi and shadowstack: the Figure 9 and Figure 8 monitors,
//     whose call actions reach the fast tier through a numeric vector's
//     has and a bind-time constant (I.nextaddr), at least 1.45x and
//     1.55x (measured 1.74-1.91x and 1.69-1.76x, against 0.96-1.04x and
//     1.35-1.44x while those actions ran generic, so either floor fails
//     if its call action falls back to the generic lowering).
//
// The margins absorb CI noise. Like the other perf gates it only runs
// when CINNAMON_PERF_GATE is set.
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
	for _, c := range []struct {
		tool string
		want float64
	}{
		{progs.OpcodeMix, 1.5},
		{progs.LoopCoverage, 2.5},
		{progs.ForwardCFI, 1.45},
		{progs.ShadowStack, 1.55},
	} {
		t.Run(c.tool, func(t *testing.T) {
			tool, err := compileTool(c.tool)
			if err != nil {
				t.Fatal(err)
			}
			bench := func(ablate backend.Ablation) func(b *testing.B) {
				return func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						_, err := backend.Run(tool, prog, backend.Janus, backend.Options{
							Out:    io.Discard,
							Ablate: ablate,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			measure := func(f func(*testing.B)) float64 {
				best := 0.0
				for i := 0; i < 5; i++ {
					r := testing.Benchmark(f)
					nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
					if best == 0 || nsPerOp < best {
						best = nsPerOp
					}
				}
				return best
			}
			var speedup float64
			for attempt := 0; attempt < 3; attempt++ {
				plain := measure(bench(backend.AblateInline))
				inlined := measure(bench(0))
				speedup = plain / inlined
				t.Logf("attempt %d: no-inline %.0f ns/op, inlined %.0f ns/op, speedup %.2fx",
					attempt, plain, inlined, speedup)
				if speedup >= c.want {
					return
				}
			}
			t.Errorf("inlined actions are only %.2fx faster than no-inline (want >= %.2fx)", speedup, c.want)
		})
	}
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
