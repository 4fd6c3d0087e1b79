package vm

// Differential tests for the translated tier's action-inlining layer:
// specialized probe thunks, register-promoted counters and probe+op
// superinstructions must be bit-identical — counts, cycles, output,
// trap text, obs attribution, trace ring, fuel-exhaustion tail — to
// both the no-inline translated tier and the reference interpreter.
// They mirror translate_test.go's matrix with every probe pure or a
// promoted counter (and deliberate mixed lists that force the generic
// path).

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obs"
)

// inlineCell is one execution configuration of the three-way
// differential: inlining on, inlining off, and the reference
// interpreter (where specs are ignored entirely).
type inlineCell struct {
	name     string
	mode     ExecMode
	noInline bool
}

var inlineCells = []inlineCell{
	{"inline", ExecTranslated, false},
	{"no-inline", ExecTranslated, true},
	{"interpreted", ExecInterpreted, false},
}

func runInlineCell(t *testing.T, prog *cfg.Program, cell inlineCell, fuel uint64,
	setup func(v *VM, fires map[string]int)) modeRun {
	t.Helper()
	var out bytes.Buffer
	v := New(prog, Config{ExecMode: cell.mode, NoInline: cell.noInline, AppOut: &out, Fuel: fuel})
	fires := map[string]int{}
	if setup != nil {
		setup(v, fires)
	}
	res, err := v.Run()
	mr := modeRun{out: out.String(), fires: fires, cycles: v.cycles}
	if err != nil {
		mr.err = err.Error()
	}
	mr.res = res
	return mr
}

// counterProbe returns p as a promoted counter: its body bumps the cell
// by delta per fire, its Flush applies the bumps of n firings at once.
// Observably identical by the Probe.Flush contract.
func counterProbe(fires map[string]int, key string, delta int64, p Probe) Probe {
	p.Fn = func(c *Ctx) { fires[key] += int(delta) }
	p.Flush = func(n int64) { fires[key] += int(n * delta) }
	return p
}

// pureProbe returns p as a pure probe whose body bumps the cell.
func pureProbe(fires map[string]int, key string, p Probe) Probe {
	p.Fn, p.Pure = func(c *Ctx) { fires[key]++ }, true
	return p
}

// inlineProbes installs the full mix of inline shapes on a program: a
// promoted counter and a generic body on the same instruction (mixed
// list — the promoted count must flush before the generic body can
// observe the cell), fully pure before+after lists on a store (the
// superinstruction-fusable shape), a pending call-after (never fused),
// and pure block-entry and edge probes.
func inlineProbes(t *testing.T, prog *cfg.Program) func(v *VM, fires map[string]int) {
	add := instByOp(t, prog, isa.Add, 0)
	store := findInst(prog, isa.Store, 0)
	call := findInst(prog, isa.Call, 0)
	blk := blockOf(t, prog, add.Addr)
	return func(v *VM, fires map[string]int) {
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(v.Add(Site{When: BeforeInst, Addr: add.Addr}, counterProbe(fires, "add-count", 2, Probe{Cost: 3})))
		must(v.Add(Site{When: BeforeInst, Addr: add.Addr}, Probe{Cost: 1, Fn: func(c *Ctx) {
			// Generic body on the same list: a full observation point —
			// it reads the promoted cell, which must be flushed by now.
			fires["add-generic-saw"] = fires["add-count"]
			fires["add-generic"]++
		}}))
		must(v.Add(Site{When: AfterInst, Addr: add.Addr}, pureProbe(fires, "add-after", Probe{Cost: 2})))
		if store != nil {
			must(v.Add(Site{When: BeforeInst, Addr: store.Addr}, counterProbe(fires, "store-count", 1, Probe{Cost: 2})))
			must(v.Add(Site{When: AfterInst, Addr: store.Addr}, pureProbe(fires, "store-after", Probe{Cost: 1})))
		}
		if call != nil {
			must(v.Add(Site{When: AfterInst, Addr: call.Addr}, Probe{Cost: 4, Fn: func(c *Ctx) { fires["call-after"]++ }}))
		}
		must(v.Add(Site{When: AtBlockEntry, Addr: blk.Start}, counterProbe(fires, "entry-count", 1, Probe{Cost: 1})))
		for _, pred := range blk.Preds {
			must(v.Add(Site{When: AtEdge, Addr: blk.Start, From: pred.Start}, pureProbe(fires, fmt.Sprintf("edge-%x", pred.Start), Probe{Cost: 1})))
		}
		v.OnEnd(func(c *Ctx) {
			// End hooks run after the final flush: the promoted cells
			// must already hold their totals.
			fires["end-saw-add"] = fires["add-count"]
		})
	}
}

// TestInlineBitIdentical runs loops, calls, traps and fuel exhaustion
// with the full inline probe mix and demands byte-identical observables
// across inline, no-inline and interpreted cells.
func TestInlineBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fuel uint64
	}{
		{"sum", sumSrc, 0},
		{"calls", tierCallSrc, 0},
		{"trap", tierTrapSrc, 0},
		{"fuel", tierCallSrc, 37},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := build(t, c.src)
			setup := inlineProbes(t, prog)
			ref := runInlineCell(t, prog, inlineCells[len(inlineCells)-1], c.fuel, setup)
			for _, cell := range inlineCells[:len(inlineCells)-1] {
				got := runInlineCell(t, prog, cell, c.fuel, setup)
				diffModes(t, c.name+"/"+cell.name, got, ref)
			}
		})
	}
}

// TestInlineFuelParity sweeps every fuel value through exhaustion with
// promoted counters live: the flush at the fuel trap must leave the
// cells exactly where the interpreter leaves them, at every cut point.
func TestInlineFuelParity(t *testing.T) {
	prog := build(t, tierCallSrc)
	setup := inlineProbes(t, prog)
	full := runInlineCell(t, prog, inlineCells[len(inlineCells)-1], 0, setup)
	if full.err != "" {
		t.Fatal(full.err)
	}
	for fuel := uint64(1); fuel <= full.res.Insts+1; fuel++ {
		ref := runInlineCell(t, prog, inlineCells[len(inlineCells)-1], fuel, setup)
		for _, cell := range inlineCells[:len(inlineCells)-1] {
			got := runInlineCell(t, prog, cell, fuel, setup)
			diffModes(t, fmt.Sprintf("fuel=%d/%s", fuel, cell.name), got, ref)
		}
	}
}

// TestInlineMidRunInvalidation is TestMidRunCacheInvalidation with every
// probe pure or a promoted counter: the translator hook of the nop block (first executed
// halfway through the run) installs promoted counters and fast thunks
// into the already-translated, currently-looping head block. The cached
// block program — including its fused superinstructions — must be
// invalidated and rebuilt with the new probes, bit-identically to both
// reference cells.
func TestInlineMidRunInvalidation(t *testing.T) {
	prog := build(t, invalidateSrc)
	add := instByOp(t, prog, isa.Add, 0)
	nop := instByOp(t, prog, isa.Nop, 0)
	headBlk := blockOf(t, prog, add.Addr)
	nopBlk := blockOf(t, prog, nop.Addr)

	setup := func(v *VM, fires map[string]int) {
		err := v.SetTranslator(func(b *cfg.Block) {
			fires["translate"]++
			if b.Start != nopBlk.Start {
				return
			}
			if err := v.Add(Site{When: BeforeInst, Addr: nop.Addr}, counterProbe(fires, "own-before", 1, Probe{Cost: 2})); err != nil {
				t.Error(err)
			}
			if err := v.Add(Site{When: BeforeInst, Addr: add.Addr}, counterProbe(fires, "head-before", 1, Probe{Cost: 3})); err != nil {
				t.Error(err)
			}
			if err := v.Add(Site{When: AfterInst, Addr: add.Addr}, pureProbe(fires, "head-after", Probe{Cost: 1})); err != nil {
				t.Error(err)
			}
			for _, pred := range headBlk.Preds {
				if err := v.Add(Site{When: AtEdge, Addr: headBlk.Start, From: pred.Start}, pureProbe(fires, "head-edge", Probe{Cost: 1})); err != nil {
					t.Error(err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ref := runInlineCell(t, prog, inlineCells[len(inlineCells)-1], 0, setup)
	var inline modeRun
	for _, cell := range inlineCells[:len(inlineCells)-1] {
		got := runInlineCell(t, prog, cell, 0, setup)
		diffModes(t, "invalidate/"+cell.name, got, ref)
		if cell.name == "inline" {
			inline = got
		}
	}
	// The loop runs r1 = 1..10; the nop block first executes at r1 == 5.
	want := map[string]int{"own-before": 1, "head-before": 5, "head-after": 5}
	for k, n := range want {
		if inline.fires[k] != n {
			t.Errorf("fires[%s] = %d, want %d", k, inline.fires[k], n)
		}
	}
	if inline.fires["head-edge"] == 0 {
		t.Error("head edge probe never fired")
	}
}

// TestInlineMidBlockInstall installs, from a generic probe body, a
// promoted-counter after-probe on a later instruction of the same,
// currently-executing block. The running fused block program must be
// abandoned mid-flight and the new counter must still cover the very
// pass that installed it — with the accumulator flushing correctly at
// run end.
func TestInlineMidBlockInstall(t *testing.T) {
	prog := build(t, hotBlockSrc)
	mul := instByOp(t, prog, isa.Mul, 0)
	store := instByOp(t, prog, isa.Store, 0)

	setup := func(v *VM, fires map[string]int) {
		installed := false
		if err := v.Add(Site{When: BeforeInst, Addr: mul.Addr}, Probe{Cost: 2, Fn: func(c *Ctx) {
			fires["mul-before"]++
			if installed {
				return
			}
			installed = true
			if err := v.Add(Site{When: AfterInst, Addr: store.Addr}, counterProbe(fires, "store-after", 1, Probe{Cost: 1})); err != nil {
				t.Error(err)
			}
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ref := runInlineCell(t, prog, inlineCells[len(inlineCells)-1], 0, setup)
	var inline modeRun
	for _, cell := range inlineCells[:len(inlineCells)-1] {
		got := runInlineCell(t, prog, cell, 0, setup)
		diffModes(t, "mid-block/"+cell.name, got, ref)
		if cell.name == "inline" {
			inline = got
		}
	}
	if inline.fires["store-after"] != inline.fires["mul-before"] {
		t.Errorf("store-after fired %d times, want %d (same pass as install)",
			inline.fires["store-after"], inline.fires["mul-before"])
	}
}

// TestInlineObsIdentical attaches a collector with a trace ring and a
// live Subscribe tap and compares the final observability report —
// per-probe fires and cycles, totals, and the trace ring with its
// sequence numbers, PCs and costs — and every tapped event across the
// three cells. Promoted counters attribute in one batch per flush
// instead of per firing, yet their events must still reach the ring and
// the tap one per firing, in firing order, and the batched totals must
// match the per-firing ones. The counter cases run the hot loop long
// enough to cross periodic flushes.
func TestInlineObsIdentical(t *testing.T) {
	longLoopSrc := strings.Replace(hotLoopSrc, "mov r3, 2000", "mov r3, 50000", 1)
	cases := []struct {
		name   string
		src    string
		probes func(t *testing.T, prog *cfg.Program, v *VM, col *obs.Collector)
	}{
		{"mixed", tierCallSrc, func(t *testing.T, prog *cfg.Program, v *VM, col *obs.Collector) {
			add := instByOp(t, prog, isa.Add, 0)
			store := instByOp(t, prog, isa.Store, 0)
			cnt := col.RegisterProbe(obs.ProbeMeta{Label: "counter", Trigger: obs.TriggerBefore, Mechanism: obs.MechInlinedCall, Addr: add.Addr, DispatchCost: 3})
			fst := col.RegisterProbe(obs.ProbeMeta{Label: "fast", Trigger: obs.TriggerAfter, Mechanism: obs.MechInlinedCall, Addr: store.Addr, DispatchCost: 2})
			gen := col.RegisterProbe(obs.ProbeMeta{Label: "generic", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall, Addr: store.Addr, DispatchCost: 5})
			fires := map[string]int{}
			mustAdd(t, v, Site{When: BeforeInst, Addr: add.Addr}, counterProbe(fires, "cnt", 1, Probe{Cost: 3, ID: cnt}))
			mustAdd(t, v, Site{When: AfterInst, Addr: store.Addr}, pureProbe(fires, "fast", Probe{Cost: 2, ID: fst}))
			mustAdd(t, v, Site{When: BeforeInst, Addr: store.Addr}, Probe{Cost: 5, ID: gen, Fn: func(c *Ctx) {}})
		}},
		// A promoted counter fused into the mul's step and one at block
		// entry, which the observed fire loop dispatches.
		{"counter", longLoopSrc, func(t *testing.T, prog *cfg.Program, v *VM, col *obs.Collector) {
			mul := instByOp(t, prog, isa.Mul, 0)
			head := blockOf(t, prog, mul.Addr)
			fires := map[string]int{}
			for _, s := range []Site{{When: BeforeInst, Addr: mul.Addr}, {When: AtBlockEntry, Addr: head.Start}} {
				id := col.RegisterProbe(obs.ProbeMeta{Label: fmt.Sprintf("counter %d", s.When), Addr: s.Addr, DispatchCost: 3})
				mustAdd(t, v, s, counterProbe(fires, fmt.Sprint(s.When), 1, Probe{Cost: 3, ID: id}))
			}
		}},
		// The same two sites, each a coalesced counter of two shares.
		{"coalesced counter", longLoopSrc, func(t *testing.T, prog *cfg.Program, v *VM, col *obs.Collector) {
			mul := instByOp(t, prog, isa.Mul, 0)
			head := blockOf(t, prog, mul.Addr)
			fires := map[string]int{}
			for _, s := range []Site{{When: BeforeInst, Addr: mul.Addr}, {When: AtBlockEntry, Addr: head.Start}} {
				shares := []Share{
					{ID: col.RegisterProbe(obs.ProbeMeta{Label: fmt.Sprintf("share a %d", s.When), Addr: s.Addr, DispatchCost: 2}), Cost: 2},
					{ID: col.RegisterProbe(obs.ProbeMeta{Label: fmt.Sprintf("share b %d", s.When), Addr: s.Addr, DispatchCost: 5}), Cost: 5},
				}
				mustAdd(t, v, s, counterProbe(fires, fmt.Sprint(s.When), 2, Probe{Shares: shares}))
			}
		}},
	}
	type obsRun struct {
		stats  *obs.Stats
		events []obs.TraceEvent
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cell inlineCell) obsRun {
				prog := build(t, tc.src)
				col := obs.New(obs.Options{TraceCap: 16})
				// Sized past every case's firing count: the tap must not drop.
				tap := make(chan obs.TraceEvent, 1<<18)
				sub := col.Subscribe(tap)
				v := New(prog, Config{ExecMode: cell.mode, NoInline: cell.noInline, Obs: col})
				tc.probes(t, prog, v, col)
				res, err := v.Run()
				if err != nil {
					t.Fatal(err)
				}
				if tc.src == longLoopSrc && res.Cycles < 2*counterFlushPeriod {
					t.Fatalf("%d cycles cross no periodic flush", res.Cycles)
				}
				col.Unsubscribe(sub)
				if n := sub.Dropped(); n != 0 {
					t.Fatalf("%s: tap dropped %d events", cell.name, n)
				}
				close(tap)
				r := obsRun{stats: col.Snapshot("test")}
				for ev := range tap {
					r.events = append(r.events, ev)
				}
				if uint64(len(r.events)) != r.stats.TotalFires {
					t.Errorf("%s: tap saw %d events, snapshot has %d fires", cell.name, len(r.events), r.stats.TotalFires)
				}
				return r
			}
			ref := run(inlineCells[len(inlineCells)-1])
			if ref.stats.TotalFires == 0 {
				t.Fatal("no probe fired")
			}
			for _, cell := range inlineCells[:len(inlineCells)-1] {
				got := run(cell)
				if !reflect.DeepEqual(got.stats, ref.stats) {
					t.Errorf("%s: snapshot diverges:\n  got  %+v\n  want %+v", cell.name, got.stats, ref.stats)
				}
				if !reflect.DeepEqual(got.events, ref.events) {
					t.Errorf("%s: tapped events diverge (%d vs %d events)", cell.name, len(got.events), len(ref.events))
				}
			}
		})
	}
}

func mustAdd(t *testing.T, v *VM, s Site, p Probe) {
	t.Helper()
	if err := v.Add(s, p); err != nil {
		t.Fatal(err)
	}
}
