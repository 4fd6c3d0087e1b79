package compile_test

// BenchmarkActionExec isolates what the compile package exists to speed
// up: executing one action body, with the placement machinery factored
// out. A capturing placer grabs the basic-block counting action
// (Figure 5b) as the engine places it, and the benchmark fires that
// action directly — once per op — under the tree-walking interpreter and
// under the compiled closures. TestCompiledActionExecSpeedup holds the
// compiled path to the advertised bar: at least 3x fewer ns/op and
// allocations per firing. TestCaseStudyLoweringSpeedup holds the
// action-heavy case studies' bodies to their own floors the same way.

import (
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/progs"
	"repro/internal/workload"
)

// capturePlacer records every rule the engine places (merged runs as
// their constituents) and the init blocks, and accepts all trigger
// points.
type capturePlacer struct {
	prog  *cfg.Program
	rules []*placement.Rule
	inits []func()
}

func (p *capturePlacer) Name() string           { return "capture" }
func (p *capturePlacer) Modules() []*cfg.Module { return p.prog.Modules }
func (p *capturePlacer) SupportsLoops() bool    { return true }

func (p *capturePlacer) Lower(rs *placement.RuleSet) error {
	for _, r := range rs.Rules() {
		if len(r.Merged) > 0 {
			p.rules = append(p.rules, r.Merged...)
			continue
		}
		p.rules = append(p.rules, r)
	}
	p.inits = rs.Inits
	return nil
}

// place instruments prog with a tool's source through the capture
// placer, under the interpreter when interpret is set, and runs its init
// blocks.
func place(tb testing.TB, src string, prog *cfg.Program, interpret bool) (*capturePlacer, *engine.Instance) {
	tb.Helper()
	ct, err := engine.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	pl := &capturePlacer{prog: prog}
	inst, err := engine.Instrument(ct, prog, pl, engine.Options{Out: io.Discard, Interpret: interpret})
	if err != nil {
		tb.Fatal(err)
	}
	if len(pl.rules) == 0 {
		tb.Fatal("no actions placed")
	}
	for _, init := range pl.inits {
		init()
	}
	return pl, inst
}

// placeBB places the basic-block counting action on the loads target,
// under the interpreter when interpret is set, and returns it.
func placeBB(tb testing.TB, interpret bool) (*placement.Action, *engine.Instance) {
	pl, inst := place(tb, progs.MustSource(progs.InstCountBB), buildTargetTB(tb, "src:loads"), interpret)
	return pl.rules[0].Action, inst
}

func benchActionExec(interpret bool) func(b *testing.B) {
	return func(b *testing.B) {
		a, inst := placeBB(b, interpret)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Exec(nil)
		}
		b.StopTimer()
		if err := inst.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkActionExec(b *testing.B) {
	b.Run("interp", benchActionExec(true))
	b.Run("compiled", benchActionExec(false))
}

// TestCompiledActionExecSpeedup enforces the perf contract of the
// closure-compilation stage: per firing, the compiled path must be at
// least 3x cheaper than the interpreter in both time and allocations.
// Time is compared as the median of alternating batches of firings
// (bench.MedianTimes), allocations per firing with testing.AllocsPerRun.
func TestCompiledActionExecSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping measurement in -short mode")
	}
	ia, iinst := placeBB(t, true)
	ca, cinst := placeBB(t, false)
	const firings = 2000
	batch := func(a *placement.Action) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			for range firings {
				a.Exec(nil)
			}
			return time.Since(start)
		}
	}
	in, cn := bench.MedianTimes(201, batch(ia), batch(ca))
	ialloc := testing.AllocsPerRun(firings, func() { ia.Exec(nil) })
	calloc := testing.AllocsPerRun(firings, func() { ca.Exec(nil) })
	t.Logf("interp:   %.1f ns/op, %.1f allocs/op", in/firings, ialloc)
	t.Logf("compiled: %.1f ns/op, %.1f allocs/op", cn/firings, calloc)
	if err := iinst.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cinst.Err(); err != nil {
		t.Fatal(err)
	}
	if 3*cn > in {
		t.Errorf("compiled %.1f ns/op is not 3x faster than interp %.1f ns/op", cn/firings, in/firings)
	}
	if 3*calloc > ialloc {
		t.Errorf("compiled %.1f allocs/op is not 3x fewer than interp %.1f allocs/op", calloc, ialloc)
	}
}

// firing is one action firing with its materialized dynamic attributes.
type firing struct {
	exec func([]value.Value)
	dyn  []value.Value
}

// session fires a case study's placed actions as its victim would, reps
// times over, and returns the elapsed time.
func session(fs []firing, reps int) time.Duration {
	start := time.Now()
	for range reps {
		for _, f := range fs {
			f.exec(f.dyn)
		}
	}
	return time.Since(start)
}

// firings lays out one pass over the captured actions of a case study:
//
//   - loopcoverage: every loop entry and exit and every block entry, in
//     placement order, so each block's action walks every recorded loop
//     id with its register locals, int64 dict reads and native counted
//     loop;
//   - forwardcfi: every call's check against a target the init block
//     recorded (the program's last function), a numeric vector's has;
//   - shadowstack: every call's push, through the bind-time constant
//     I.nextaddr, each followed by a matching return's pop, so the
//     stack stays balanced.
func firings(tool string, prog *cfg.Program, rules []*placement.Rule) []firing {
	var fs []firing
	switch tool {
	case progs.ForwardCFI:
		funcs := prog.Modules[0].Funcs
		target := []value.Value{value.UintVal(funcs[len(funcs)-1].Entry)}
		for _, r := range rules {
			fs = append(fs, firing{r.Action.Exec, target})
		}
	case progs.ShadowStack:
		var ret *placement.Action
		for _, r := range rules {
			if len(r.Action.DynAttrs) > 0 {
				ret = r.Action
			}
		}
		for _, r := range rules {
			if len(r.Action.DynAttrs) == 0 {
				fs = append(fs, firing{r.Action.Exec, nil},
					firing{ret.Exec, []value.Value{value.UintVal(r.Inst.Next())}})
			}
		}
	default:
		for _, r := range rules {
			fs = append(fs, firing{r.Action.Exec, nil})
		}
	}
	return fs
}

// TestCaseStudyLoweringSpeedup is the perf gate for the lowering of the
// action-heavy case studies' bodies: on leela, a pass of each case
// study's firings (see firings) under the compiled executor must beat
// the same pass under the interpreter by its floor. Each side of a pair
// is one whole pass, run alternately and compared by median
// (bench.MedianTimes). Each floor sits between a lowering that boxes
// every value, which read 3.0x, 3.2x and 3.9-4.1x on a 2-vCPU host, and
// the unboxed one, which read 32-34x, 34-36x and 24-25x there, so it
// fails if the case study's bodies fall back to boxed values:
//
//   - loopcoverage: register locals, int64 dict maps and the native
//     counted loop, at least 12x;
//   - forwardcfi: a numeric vector's has, at least 12x;
//   - shadowstack: a bind-time constant and a numeric dict, at least
//     10x.
//
// Like the other perf gates it only runs when CINNAMON_PERF_GATE is set.
func TestCaseStudyLoweringSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the case-study lowering perf gate")
	}
	spec, ok := workload.ByName("leela")
	if !ok {
		t.Fatal("no leela benchmark")
	}
	prog, err := bench.BuildBenchmark(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tool string
		want float64
	}{
		{progs.LoopCoverage, 12},
		{progs.ForwardCFI, 12},
		{progs.ShadowStack, 10},
	} {
		t.Run(c.tool, func(t *testing.T) {
			ipl, iinst := place(t, progs.MustSource(c.tool), prog, true)
			cpl, cinst := place(t, progs.MustSource(c.tool), prog, false)
			interp, compiled := firings(c.tool, prog, ipl.rules), firings(c.tool, prog, cpl.rules)
			// Size a pass to ~50µs of compiled work and the pair count to
			// ~1s per attempt.
			reps := 1
			if d := session(compiled, 1); d < 50*time.Microsecond {
				reps = int(50*time.Microsecond/(d+1)) + 1
			}
			pairs := 101
			if d := session(interp, reps) + session(compiled, reps); d < 10*time.Millisecond {
				pairs = int(time.Second/(d+1)) | 1
			}
			var speedup float64
			for attempt := 0; attempt < 3; attempt++ {
				in, cn := bench.MedianTimes(pairs,
					func() time.Duration { return session(interp, reps) },
					func() time.Duration { return session(compiled, reps) })
				speedup = in / cn
				t.Logf("attempt %d: %d pairs of %d passes: interpreter %.0f ns, compiled %.0f ns, speedup %.2fx",
					attempt, pairs, reps, in, cn, speedup)
				if speedup >= c.want {
					break
				}
			}
			if err := iinst.Err(); err != nil {
				t.Fatal(err)
			}
			if err := cinst.Err(); err != nil {
				t.Fatal(err)
			}
			if speedup < c.want {
				t.Errorf("compiled bodies are only %.2fx faster than the interpreter (want >= %.2fx)", speedup, c.want)
			}
		})
	}
}
