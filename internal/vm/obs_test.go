package vm

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestObsAttribution installs three probes on the same VM and checks
// that firings and cycle costs land on the rows Add registered for them:
// a probe installed with no label or mechanism still gets a row of its
// own, so nothing reaches the untracked bucket, and the totals reconcile
// against the extra cycles charged.
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
	v := New(prog, Config{Obs: col})
	if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Cost: 5, Label: "test before", Mechanism: obs.MechCleanCall, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: AfterInst, Addr: addInst.Addr}, Probe{Cost: 7, Label: "test after", Mechanism: obs.MechInlinedCall, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(Site{When: BeforeInst, Addr: addInst.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) {}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}

	s := col.Snapshot("test")
	if len(s.Probes) != 3 {
		t.Fatalf("%d rows, want one per installed probe", len(s.Probes))
	}
	// The sum loop executes its add 10 times.
	if got := s.FiresWhere(func(p obs.ProbeStats) bool { return p.Label == "test before" }); got != 10 {
		t.Errorf("before fires = %d, want 10", got)
	}
	if got := s.CyclesWhere(func(p obs.ProbeStats) bool { return p.Label == "test after" }); got != 70 {
		t.Errorf("after cycles = %d, want 70", got)
	}
	if row := s.Probes[2]; row.Label != "" || row.Fires != 10 || row.Cycles != 20 {
		t.Errorf("unlabelled row %q: fires=%d cycles=%d, want 10/20", row.Label, row.Fires, row.Cycles)
	}
	if s.UntrackedFires != 0 || s.UntrackedCycles != 0 {
		t.Errorf("untracked fires=%d cycles=%d, want 0/0", s.UntrackedFires, s.UntrackedCycles)
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

// TestAttributionExactAtObservationPoints checks the batched
// attribution at each point the machine flushes it. On every inline
// cell, one probe of each kind sits in the hot loop: a generic probe
// (which also counts the loop's hits), a specialized one, a promoted
// counter, a two-share coalesced counter and a stride-3 sampled probe.
// Inside the pace hook, after a fuel trap and after a cooperative stop,
// every row's fires and skips must equal the ground truth the bodies
// and flushes keep — so a mid-run snapshot taken there is exact.
func TestAttributionExactAtObservationPoints(t *testing.T) {
	src := strings.Replace(hotLoopSrc, "mov r3, 2000", "mov r3, 20000", 1)
	type point struct {
		name string
		fuel uint64
		stop bool
	}
	for _, cell := range inlineCells {
		for _, pt := range []point{{name: "pace"}, {name: "fuel", fuel: 200_003}, {name: "stop", stop: true}} {
			t.Run(cell.name+"/"+pt.name, func(t *testing.T) {
				prog := build(t, src)
				mul := instByOp(t, prog, isa.Mul, 0)
				head := blockOf(t, prog, mul.Addr)
				col := obs.New(obs.Options{})
				cfg := Config{ExecMode: cell.mode, NoInline: cell.noInline, Obs: col, Fuel: pt.fuel}
				var stop atomic.Bool
				if pt.stop {
					cfg.Stop = &stop
				}
				v := New(prog, cfg)
				truth := map[string]int{}
				// The generic probe fires after the mul, so at every
				// observation point its count is the number of hits the
				// sampled probe's gate saw before the mul.
				mustAdd(t, v, Site{When: AfterInst, Addr: mul.Addr}, Probe{Cost: 5, Label: "generic", Fn: func(c *Ctx) {
					truth["generic"]++
					if pt.stop && truth["generic"] == 7777 {
						stop.Store(true)
					}
				}})
				mustAdd(t, v, Site{When: BeforeInst, Addr: mul.Addr}, pureProbe(truth, "sampled", Probe{Cost: 4, Label: "sampled", Stride: 3}))
				add := instByOp(t, prog, isa.Add, 1)
				mustAdd(t, v, Site{When: BeforeInst, Addr: add.Addr}, pureProbe(truth, "specialized", Probe{Cost: 2, Label: "specialized"}))
				add = instByOp(t, prog, isa.Add, 2)
				mustAdd(t, v, Site{When: BeforeInst, Addr: add.Addr}, counterProbe(truth, "counter", 1, Probe{Cost: 3, Label: "counter"}))
				shares := []Share{{Label: "share a", Cost: 2}, {Label: "share b", Cost: 6}}
				mustAdd(t, v, Site{When: AtBlockEntry, Addr: head.Start}, counterProbe(truth, "coalesced", 1, Probe{Shares: shares}))

				check := func(where string) {
					t.Helper()
					hits := uint64(truth["generic"])
					want := map[string][2]uint64{
						"generic":     {hits, 0},
						"sampled":     {uint64(truth["sampled"]), hits - uint64(truth["sampled"])},
						"specialized": {uint64(truth["specialized"]), 0},
						"counter":     {uint64(truth["counter"]), 0},
						"share a":     {uint64(truth["coalesced"]), 0},
						"share b":     {uint64(truth["coalesced"]), 0},
					}
					for _, row := range col.Snapshot("test").Probes {
						w := want[row.Label]
						if row.Fires != w[0] || row.Skips != w[1] || row.Cycles != w[0]*row.DispatchCost+w[1]*SampleGateCost {
							t.Errorf("%s: %s row has %d fires, %d skips, %d cycles; want %d fires, %d skips",
								where, row.Label, row.Fires, row.Skips, row.Cycles, w[0], w[1])
						}
					}
				}
				paces := 0
				if pt.name == "pace" {
					v.SetPacer(30_011, func() {
						paces++
						check(fmt.Sprintf("pace %d", paces))
					})
				}
				_, err := v.Run()
				switch pt.name {
				case "pace":
					if err != nil {
						t.Fatal(err)
					}
					if paces < 10 {
						t.Fatalf("pace hook ran %d times", paces)
					}
				case "fuel":
					var te *TrapError
					if !errors.As(err, &te) {
						t.Fatalf("run ended with %v, want a fuel trap", err)
					}
				case "stop":
					if !errors.Is(err, ErrStopped) {
						t.Fatalf("run ended with %v, want ErrStopped", err)
					}
				}
				if truth["generic"] < 1000 || truth["sampled"] == 0 || truth["counter"] == 0 || truth["coalesced"] == 0 {
					t.Fatalf("too few firings to check: %v", truth)
				}
				check(pt.name)
			})
		}
	}
}

// TestObsDisabledDispatchOverhead is the perf regression gate for the
// zero-cost-when-disabled promise: with no collector attached, VM.fire
// on a Config.NoInline machine must stay within 3% of the generic loop
// as it was before observability existed. The gate times single runs
// of a fixed batch of fires (see medianGate). Comparisons are noisy
// under -race and on loaded CI machines, so the gate only runs when
// CINNAMON_PERF_GATE is set (scripts/ci.sh sets it for the dedicated
// non-race invocation).
func TestObsDisabledDispatchOverhead(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the disabled-path perf gate")
	}

	prog := build(t, sumSrc)
	in := &isa.Inst{}
	var sink uint64
	body := func(c *Ctx) { sink++ }
	// One run is a batch of fires, timed whole.
	const fires = 2000

	t.Run("generic", func(t *testing.T) {
		v := New(prog, Config{NoInline: true})
		ps := make([]probe, 4)
		for i := range ps {
			ps[i] = probe{fn: body, cost: 3}
		}
		// The baseline replicates the generic loop as it was before the
		// observability branch was added.
		medianGate(t, 1.03, "disabled-path dispatch", func() time.Duration {
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
		}, func() time.Duration {
			start := time.Now()
			for i := 0; i < fires; i++ {
				v.fire(ps, in, BeforeInst)
			}
			return time.Since(start)
		})
	})
	_ = sink
}

// medianGate is the method of every dispatch-overhead gate: it times
// single runs of the two sides with medianRuns and compares the medians
// of 1 001 pairs. A run takes tens to hundreds of microseconds, so host
// drift hits both sides alike, and the median shrugs off the runs a GC
// cycle or a preemption lands in. The gate accepts the first of three
// attempts whose ratio of current to baseline is within limit.
func medianGate(t *testing.T, limit float64, what string, baseline, current func() time.Duration) {
	t.Helper()
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		base, cur := medianRuns(1001, baseline, current)
		ratio = cur / base
		t.Logf("attempt %d: baseline %.0f ns/run, current %.0f ns/run, ratio %.4f", attempt, base, cur, ratio)
		if ratio <= limit {
			return
		}
	}
	t.Errorf("%s is %.2f%% slower than its baseline (limit %.0f%%)", what, (ratio-1)*100, (limit-1)*100)
}

// medianRuns times pairs single runs of each side, alternating them and
// swapping which goes first, and returns the median ns per run of a and
// of b.
func medianRuns(pairs int, a, b func() time.Duration) (float64, float64) {
	median := func(d []time.Duration) float64 {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return float64(d[len(d)/2].Nanoseconds())
	}
	as, bs := make([]time.Duration, pairs), make([]time.Duration, pairs)
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			as[i], bs[i] = a(), b()
		} else {
			bs[i], as[i] = b(), a()
		}
	}
	return median(as), median(bs)
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
// run must cost no more than 5% over a collector-free one. Two probe
// shapes are held to it:
//
//   - generic: a clean-call body, whose firings bump the probe's tally
//     and are attributed in one batch per flush. The baseline's body
//     does the same tool work plus a plain-counter replica of
//     per-firing accounting, on a machine without a collector.
//   - counter: a promoted counter (Probe.Flush), whose firings ride
//     the accumulator and are attributed in one batch per flush. The
//     baseline is the identical probe on a machine without a collector.
//
// Each side of a pair is one whole run, building its machine (and, when
// observed, its collector) inside the timed op; medianGate compares the
// medians. Gated like the disabled-path test: only runs when
// CINNAMON_PERF_GATE is set.
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
	// gate times run(false) against run(true), where run builds and runs
	// one machine with probe p on the mul, registered on a fresh
	// collector when observed, and returns its wall time.
	gate := func(t *testing.T, what string, mech string, probe func(observed bool) Probe) {
		run := func(observed bool) time.Duration {
			start := time.Now()
			cfg := Config{}
			p := probe(observed)
			if observed {
				cfg.Obs = obs.New(obs.Options{})
				p.Label, p.Mechanism = "gate", mech
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
		medianGate(t, limit, what,
			func() time.Duration { return run(false) },
			func() time.Duration { return run(true) })
	}

	t.Run("generic", func(t *testing.T) {
		// Plain-counter replica: what per-firing accounting costs
		// without atomics.
		var plainFires, plainCycles uint64
		gate(t, "enabled-path run", obs.MechCleanCall, func(observed bool) Probe {
			if observed {
				return Probe{Cost: 3, Fn: toolWork}
			}
			return Probe{Cost: 3, Fn: func(c *Ctx) {
				toolWork(c)
				plainFires++
				plainCycles += 3
			}}
		})
		_, _ = plainFires, plainCycles
	})

	t.Run("counter", func(t *testing.T) {
		gate(t, "observed promoted counter run", obs.MechInlinedCall, func(bool) Probe {
			return Probe{Cost: 3, Fn: toolWork, Flush: func(n int64) { sink += uint64(n) }}
		})
	})
	_ = sink
}
