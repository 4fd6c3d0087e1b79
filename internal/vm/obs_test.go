package vm

import (
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestObsAttribution installs tagged and untagged probes on the same VM
// and checks that firings and cycle costs land on the right collector
// slots: registered probes by ID, probes without an ID in the untracked
// bucket, with totals reconciling against the extra cycles charged.
func TestObsAttribution(t *testing.T) {
	prog := build(t, sumSrc)
	f := prog.FuncByName("main")
	var addInst *isa.Inst
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Add && addInst == nil {
				addInst = in
			}
		}
	}

	col := obs.New(obs.Options{TraceCap: 3})
	before := col.RegisterProbe(obs.ProbeMeta{Label: "test before", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall, Addr: addInst.Addr})
	after := col.RegisterProbe(obs.ProbeMeta{Label: "test after", Trigger: obs.TriggerAfter, Mechanism: obs.MechInlinedCall, Addr: addInst.Addr})

	v := New(prog, Config{Obs: col})
	if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Cost: 5, ID: before, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: AfterInst, Addr: addInst.Addr}, Probe{Cost: 7, ID: after, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	// No ID: counted, but in the untracked bucket.
	if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}

	s := col.Snapshot("test")
	// The sum loop executes its add 10 times.
	if got := s.FiresWhere(func(p obs.ProbeStats) bool { return p.Label == "test before" }); got != 10 {
		t.Errorf("before fires = %d, want 10", got)
	}
	if got := s.CyclesWhere(func(p obs.ProbeStats) bool { return p.Label == "test after" }); got != 70 {
		t.Errorf("after cycles = %d, want 70", got)
	}
	if s.UntrackedFires != 10 || s.UntrackedCycles != 20 {
		t.Errorf("untracked fires=%d cycles=%d, want 10/20", s.UntrackedFires, s.UntrackedCycles)
	}
	if s.TotalFires != 30 {
		t.Errorf("total fires = %d, want 30", s.TotalFires)
	}
	if s.ProbeCycles != 10*5+10*7+10*2 {
		t.Errorf("probe cycles = %d, want %d", s.ProbeCycles, 10*5+10*7+10*2)
	}
	// Trace ring holds the last 3 of 30 firings.
	if s.Trace == nil || len(s.Trace.Events) != 3 || s.Trace.Dropped != 27 {
		t.Errorf("trace = %+v, want 3 events with 27 dropped", s.Trace)
	}
}

// TestObsDisabledIdenticalRun checks that a VM without a collector and a
// VM with one produce identical results — collection observes but never
// charges cycles.
func TestObsDisabledIdenticalRun(t *testing.T) {
	prog := build(t, sumSrc)
	plain := New(prog, Config{})
	resPlain, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	prog2 := build(t, sumSrc)
	observed := New(prog2, Config{Obs: obs.New(obs.Options{})})
	resObs, err := observed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Cycles != resObs.Cycles || resPlain.Insts != resObs.Insts {
		t.Errorf("collector changed run: cycles %d vs %d, insts %d vs %d",
			resPlain.Cycles, resObs.Cycles, resPlain.Insts, resObs.Insts)
	}
}

// TestObsDisabledDispatchOverhead is the perf regression gate for the
// zero-cost-when-disabled promise: with no collector attached, each of
// the VM's two fire loops must stay within 3% of its baseline. The
// generic subtest holds VM.fire on a Config.NoInline machine (which
// includes fire's dispatch to the tier's loop) to the generic loop as it
// was before observability existed. The inline subtest holds VM.fire on
// a default machine to the fireInline it dispatches to, called directly:
// both sides run the one copy of the loop, so the gap is what fire adds
// on the default tier.
//
// Both subtests time single runs of a fixed batch of fires, alternating
// the two sides and swapping which goes first, and compare their
// medians, as TestObsEnabledDispatchOverhead's counter subtest does: a
// run takes tens of microseconds, so host drift hits both sides alike
// and the median shrugs off the runs a preemption lands in. Each
// accepts the first of three attempts under the limit. Comparisons are
// noisy under -race and on loaded CI machines, so the gate only runs
// when CINNAMON_PERF_GATE is set (scripts/ci.sh sets it for the
// dedicated non-race invocation).
func TestObsDisabledDispatchOverhead(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the disabled-path perf gate")
	}

	prog := build(t, sumSrc)
	in := &isa.Inst{}
	var sink uint64
	body := func(c *Ctx) { sink++ }
	const limit = 1.03
	// One run is a batch of fires, timed whole.
	const fires = 2000

	gate := func(t *testing.T, baseline, current func() time.Duration) {
		median := func(d []time.Duration) float64 {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			return float64(d[len(d)/2].Nanoseconds())
		}
		const pairs = 1001
		var ratio float64
		for attempt := 0; attempt < 3; attempt++ {
			bs, cs := make([]time.Duration, pairs), make([]time.Duration, pairs)
			for i := 0; i < pairs; i++ {
				if i%2 == 0 {
					bs[i], cs[i] = baseline(), current()
				} else {
					cs[i], bs[i] = current(), baseline()
				}
			}
			base, cur := median(bs), median(cs)
			ratio = cur / base
			t.Logf("attempt %d: baseline %.0f ns/run, current %.0f ns/run, ratio %.4f", attempt, base, cur, ratio)
			if ratio <= limit {
				return
			}
		}
		t.Errorf("disabled-path dispatch is %.2f%% slower than its baseline (limit 3%%)",
			(ratio-1)*100)
	}
	fireAll := func(v *VM, ps []probe) time.Duration {
		start := time.Now()
		for i := 0; i < fires; i++ {
			v.fire(ps, in, BeforeInst)
		}
		return time.Since(start)
	}

	t.Run("generic", func(t *testing.T) {
		v := New(prog, Config{NoInline: true})
		ps := make([]probe, 4)
		for i := range ps {
			ps[i] = probe{fn: body, cost: 3}
		}
		// The baseline replicates the generic loop as it was before the
		// observability branch was added, so fire's dispatch is charged
		// to the current side.
		gate(t, func() time.Duration {
			c := &v.ctx
			start := time.Now()
			for i := 0; i < fires; i++ {
				saveInst, saveWhen := c.inst, c.when
				c.inst, c.when = in, BeforeInst
				for _, p := range ps {
					v.cycles += p.cost
					p.fn(c)
				}
				c.inst, c.when = saveInst, saveWhen
			}
			return time.Since(start)
		}, func() time.Duration { return fireAll(v, ps) })
	})

	t.Run("inline", func(t *testing.T) {
		v := New(prog, Config{})
		// One probe of every fireInline shape: two promoted counters, a
		// specialized callback (which flushes them) and a generic body.
		flush := func(n int64) { sink += uint64(n) }
		ps := []probe{
			{fn: body, cost: 3, spec: &ProbeSpec{Counter: true, Flush: flush}},
			{fn: body, cost: 3, spec: &ProbeSpec{Counter: true, Flush: flush}},
			{fn: body, cost: 3, spec: &ProbeSpec{Fn: body}},
			{fn: body, cost: 3},
		}
		gate(t, func() time.Duration {
			start := time.Now()
			for i := 0; i < fires; i++ {
				v.fireInline(ps, in, BeforeInst)
			}
			return time.Since(start)
		}, func() time.Duration { return fireAll(v, ps) })
	})
	_ = sink
}

// hotLoopSrc is a 2000-iteration loop whose body is ~18 instructions
// with a single probed site (the lone mul): the probe density of a
// realistic monitoring tool, and enough whole-run work that VM
// dispatch, not setup, dominates the measurement.
const hotLoopSrc = `
.module hot
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 2000
head:
  add  r1, r1, r2
  mul  r5, r1, 3
  add  r5, r5, 1
  add  r6, r5, r1
  add  r6, r6, 2
  add  r7, r6, r5
  add  r7, r7, 1
  add  r8, r7, r6
  add  r8, r8, 3
  add  r9, r8, r7
  add  r9, r9, 1
  add  r10, r9, r8
  add  r10, r10, 2
  add  r11, r10, r9
  add  r11, r11, 1
  add  r2, r2, 1
  blt  r2, r3, head
  halt
`

// TestObsEnabledDispatchOverhead is the perf gate for the *enabled*
// path: with a probe on the hottest instruction, a collector-attached
// run must cost no more than 5% over a collector-free replica. Two
// probe shapes are held to it:
//
//   - generic: a clean-call body, attributed per firing by Collector.Fire
//     with atomic adds (so a /metrics scrape can read them mid-run). The
//     baseline's body does the same tool work plus a plain-counter
//     replica of the pre-atomic accounting; each side's best of five
//     benchmark runs is compared.
//   - counter: a promoted counter (ProbeSpec.Counter), whose firings ride
//     the accumulator and are attributed in one batch per flush. The
//     baseline is the identical probe on a machine without a collector.
//     The subtest alternates single whole runs of the two sides,
//     swapping which goes first, and compares their median wall times:
//     a run takes a few hundred microseconds, so host drift hits both
//     sides alike, and the median shrugs off the runs a GC cycle or a
//     preemption lands in.
//
// Gated like the disabled-path test: only runs when CINNAMON_PERF_GATE
// is set.
func TestObsEnabledDispatchOverhead(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the enabled-path perf gate")
	}

	prog := build(t, hotLoopSrc)
	var addAddr uint64
	for _, b := range prog.FuncByName("main").Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.Mul {
				addAddr = in.Addr
			}
		}
	}
	if addAddr == 0 {
		t.Fatal("no mul instruction found")
	}

	var sink uint64
	toolWork := func(c *Ctx) { sink++ }
	const limit = 1.05

	t.Run("generic", func(t *testing.T) {
		// Pre-atomic accounting replica: what the enabled path cost
		// before counters became scrapeable.
		var plainFires, plainCycles uint64
		baseline := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := New(prog, Config{})
				if err := v.Add(Site{When: BeforeInst, Addr: addAddr}, Probe{Cost: 3, Fn: func(c *Ctx) {
					toolWork(c)
					plainFires++
					plainCycles += 3
				}}); err != nil {
					b.Fatal(err)
				}
				if _, err := v.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
		current := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col := obs.New(obs.Options{})
				id := col.RegisterProbe(obs.ProbeMeta{Label: "gate", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall, Addr: addAddr, DispatchCost: 3})
				v := New(prog, Config{Obs: col})
				if err := v.Add(Site{When: BeforeInst, Addr: addAddr}, Probe{Cost: 3, ID: id, Fn: toolWork}); err != nil {
					b.Fatal(err)
				}
				if _, err := v.Run(); err != nil {
					b.Fatal(err)
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

		var ratio float64
		for attempt := 0; attempt < 3; attempt++ {
			base := measure(baseline)
			cur := measure(current)
			ratio = cur / base
			t.Logf("attempt %d: baseline %.0f ns/run, current %.0f ns/run, ratio %.4f", attempt, base, cur, ratio)
			if ratio <= limit {
				return
			}
		}
		t.Errorf("enabled-path run is %.2f%% slower than plain-counter accounting (limit 5%%)",
			(ratio-1)*100)
		_, _ = plainFires, plainCycles
	})

	t.Run("counter", func(t *testing.T) {
		// run builds and runs one machine with a promoted counter on the
		// mul, registered on a fresh collector when observed, and returns
		// its wall time.
		run := func(observed bool) time.Duration {
			start := time.Now()
			cfg := Config{}
			p := Probe{Cost: 3, Fn: toolWork, Spec: &ProbeSpec{
				Counter: true,
				Flush:   func(n int64) { sink += uint64(n) },
			}}
			if observed {
				cfg.Obs = obs.New(obs.Options{})
				p.ID = cfg.Obs.RegisterProbe(obs.ProbeMeta{Label: "gate", Trigger: obs.TriggerBefore, Mechanism: obs.MechInlinedCall, Addr: addAddr, DispatchCost: 3})
			}
			v := New(prog, cfg)
			if err := v.Add(Site{When: BeforeInst, Addr: addAddr}, p); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		median := func(d []time.Duration) float64 {
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			return float64(d[len(d)/2].Nanoseconds())
		}

		const pairs = 1001
		var ratio float64
		for attempt := 0; attempt < 3; attempt++ {
			bs, cs := make([]time.Duration, pairs), make([]time.Duration, pairs)
			for i := 0; i < pairs; i++ {
				if i%2 == 0 {
					bs[i], cs[i] = run(false), run(true)
				} else {
					cs[i], bs[i] = run(true), run(false)
				}
			}
			base, cur := median(bs), median(cs)
			ratio = cur / base
			t.Logf("attempt %d: baseline %.0f ns/run, current %.0f ns/run, ratio %.4f", attempt, base, cur, ratio)
			if ratio <= limit {
				return
			}
		}
		t.Errorf("observed promoted counter run is %.2f%% slower than the same run without a collector (limit 5%%)",
			(ratio-1)*100)
	})
	_ = sink
}
