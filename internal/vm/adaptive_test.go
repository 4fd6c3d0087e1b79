package vm

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Differential tests for the adaptive layer: sampling countdowns and
// mid-run probe removal/re-arming must be bit-identical — fires, skips,
// cycles, output — across the translated tier (inlined and not) and the
// reference interpreter, including around pending call-after fires.

var adaptiveModes = []struct {
	name     string
	mode     ExecMode
	noInline bool
}{
	{"translated", ExecTranslated, false},
	{"noinline", ExecTranslated, true},
	{"interpreted", ExecInterpreted, false},
}

// TestSamplingStrideExactness: a stride-N probe fires on hits N, 2N, ...
// — exactly floor(hits/N) fires — and every swallowed hit is attributed
// as a skip at SampleGateCost, identically on every tier.
func TestSamplingStrideExactness(t *testing.T) {
	const dispatchCost = 26
	type result struct {
		fires, skips, cycles, total uint64
		out                         string
	}
	var results []result
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		col := obs.New(obs.Options{})
		var out bytes.Buffer
		v := New(prog, Config{AppOut: &out, Obs: col, ExecMode: m.mode, NoInline: m.noInline})
		// The loop-head add executes 10 times.
		addr := instByOp(t, prog, isa.Add, 0).Addr
		fires := uint64(0)
		if err := v.Add(Site{When: BeforeInst, Addr: addr}, Probe{Cost: dispatchCost, Label: "sampled", Stride: 3, Fn: func(c *Ctx) { fires++ }}); err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot("")
		p := s.Probes[0]
		if fires != 3 || p.Fires != 3 {
			t.Errorf("%s: fires = %d (obs %d), want floor(10/3) = 3", m.name, fires, p.Fires)
		}
		if p.Skips != 7 {
			t.Errorf("%s: skips = %d, want 7", m.name, p.Skips)
		}
		if want := uint64(3*dispatchCost + 7*SampleGateCost); p.Cycles != want {
			t.Errorf("%s: probe cycles = %d, want %d (fires x dispatch + skips x gate)", m.name, p.Cycles, want)
		}
		results = append(results, result{p.Fires, p.Skips, p.Cycles, res.Cycles, out.String()})
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("%s diverges from %s: %+v vs %+v",
				adaptiveModes[i].name, adaptiveModes[0].name, results[i], results[0])
		}
	}
}

const callLoopSrc = `
.module a.out
.executable
.entry main
.func main
  mov r2, 0
  mov r3, 6
head:
  call work
  add r2, r2, 1
  blt r2, r3, head
  halt
.func work
  mov r0, 7
  ret
`

// TestSampledCallAfter: the sampling gate of an after-call probe is
// evaluated when the pending fire resolves at the fall-through, so a
// stride-2 probe on a call executed 6 times fires exactly 3 times on
// every tier.
func TestSampledCallAfter(t *testing.T) {
	var prev *obs.Stats
	var prevCycles uint64
	for _, m := range adaptiveModes {
		prog := build(t, callLoopSrc)
		col := obs.New(obs.Options{})
		v := New(prog, Config{Obs: col, ExecMode: m.mode, NoInline: m.noInline})
		addr := instByOp(t, prog, isa.Call, 0).Addr
		fires := uint64(0)
		if err := v.Add(Site{When: AfterInst, Addr: addr}, Probe{Cost: 30, Label: "after-call", Stride: 2, Fn: func(c *Ctx) {
			fires++
			if c.RetVal() != 7 {
				t.Errorf("%s: retval = %d, want 7", m.name, c.RetVal())
			}
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fires != 3 {
			t.Errorf("%s: fires = %d, want 3", m.name, fires)
		}
		s := col.Snapshot("")
		if p := s.Probes[0]; p.Fires != 3 || p.Skips != 3 {
			t.Errorf("%s: obs fires/skips = %d/%d, want 3/3", m.name, p.Fires, p.Skips)
		}
		if prev != nil {
			if s.ProbeCycles != prev.ProbeCycles || res.Cycles != prevCycles {
				t.Errorf("%s: cycles diverge: probe %d/%d total %d/%d",
					m.name, s.ProbeCycles, prev.ProbeCycles, res.Cycles, prevCycles)
			}
		}
		prev, prevCycles = s, res.Cycles
	}
}

const callOnceSrc = `
.module a.out
.executable
.entry main
.func main
  call mid
  halt
.func mid
  mov r0, 1
  ret
`

// TestDisableSuppressesPendingCallAfter: a probe removed while its
// call-after fire is pending (pushed at the call, resolved at the
// fall-through) is suppressed — the fire is neither lost nor duplicated
// — and a probe removed and re-armed while pending fires exactly once.
// Identical on every tier.
func TestDisableSuppressesPendingCallAfter(t *testing.T) {
	for _, rearm := range []bool{false, true} {
		want := uint64(0)
		if rearm {
			want = 1
		}
		for _, m := range adaptiveModes {
			prog := build(t, callOnceSrc)
			col := obs.New(obs.Options{})
			v := New(prog, Config{Obs: col, ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
			callAddr := instByOp(t, prog, isa.Call, 0).Addr
			movAddr := instByOp(t, prog, isa.Mov, 0).Addr // inside mid: runs between push and fall-through
			retAddr := instByOp(t, prog, isa.Return, 0).Addr
			fires := uint64(0)
			if err := v.Add(Site{When: AfterInst, Addr: callAddr}, Probe{Cost: 30, Label: "after-call", Fn: func(c *Ctx) { fires++ }}); err != nil {
				t.Fatal(err)
			}
			id := v.AdaptiveProbes(nil)[0].ID
			if err := v.Add(Site{When: BeforeInst, Addr: movAddr}, Probe{Fn: func(c *Ctx) {
				if !v.SetProbeEnabled(id, false) {
					t.Errorf("%s: after-call probe not adaptive", m.name)
				}
			}}); err != nil {
				t.Fatal(err)
			}
			if rearm {
				if err := v.Add(Site{When: BeforeInst, Addr: retAddr}, Probe{Fn: func(c *Ctx) {
					v.SetProbeEnabled(id, true)
				}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			if fires != want {
				t.Errorf("%s (rearm=%v): pending call-after fired %d times, want %d",
					m.name, rearm, fires, want)
			}
			if p := col.Snapshot("").Probes[0]; p.Fires != want {
				t.Errorf("%s (rearm=%v): obs fires = %d, want %d", m.name, rearm, p.Fires, want)
			}
		}
	}
}

// TestMidRunEjectAndRearmInLoop: removal and re-arming driven from probe
// bodies inside a hot loop — the removal invalidates the very block
// being executed on the translated tier — keeps fire counts and cycle
// accounting identical across tiers.
func TestMidRunEjectAndRearmInLoop(t *testing.T) {
	type result struct {
		fires, probeCycles, total uint64
		out                       string
	}
	var results []result
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		col := obs.New(obs.Options{})
		var out bytes.Buffer
		v := New(prog, Config{AppOut: &out, Obs: col, ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
		target := instByOp(t, prog, isa.Add, 0).Addr // loop head: 10 hits
		ctl := instByOp(t, prog, isa.Add, 1).Addr    // same block, after target
		fires := uint64(0)
		if err := v.Add(Site{When: BeforeInst, Addr: target}, Probe{Cost: 26, Label: "target", Fn: func(c *Ctx) { fires++ }}); err != nil {
			t.Fatal(err)
		}
		id := v.AdaptiveProbes(nil)[0].ID
		iter := 0
		if err := v.Add(Site{When: BeforeInst, Addr: ctl}, Probe{Fn: func(c *Ctx) {
			iter++
			switch iter {
			case 3:
				v.SetProbeEnabled(id, false)
			case 7:
				v.SetProbeEnabled(id, true)
			}
		}}); err != nil {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Enabled for iterations 1-3 (the target precedes the controller
		// in the block) and 8-10 after the re-arm at iteration 7.
		if fires != 6 {
			t.Errorf("%s: fires = %d, want 6 (iters 1-3 and 8-10)", m.name, fires)
		}
		s := col.Snapshot("")
		results = append(results, result{s.Probes[0].Fires, s.ProbeCycles, res.Cycles, out.String()})
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("%s diverges from %s: %+v vs %+v",
				adaptiveModes[i].name, adaptiveModes[0].name, results[i], results[0])
		}
	}
}

// TestRearmLaterProbeOfSameList: a probe body that re-arms a later,
// ejected probe of its own instruction's list sees it fire in the same
// pass, as the interpreter reads the list live — on the translated tier
// too, whose block program had dropped the ejected probe.
func TestRearmLaterProbeOfSameList(t *testing.T) {
	var counts [][2]int
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		v := New(prog, Config{Obs: obs.New(obs.Options{}), ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
		addr := instByOp(t, prog, isa.Add, 0).Addr // loop head: 10 hits
		var n [2]int
		var later obs.ProbeID
		mustAdd(t, v, Site{When: BeforeInst, Addr: addr}, Probe{Label: "arm", Fn: func(c *Ctx) {
			if n[0]++; n[0] == 4 {
				v.SetProbeEnabled(later, true)
			}
		}})
		mustAdd(t, v, Site{When: BeforeInst, Addr: addr}, Probe{Label: "later", Fn: func(c *Ctx) { n[1]++ }})
		later = v.AdaptiveProbes(nil)[1].ID
		v.OnStart(func(*Ctx) { v.SetProbeEnabled(later, false) })
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, n)
	}
	for i, n := range counts {
		if n != [2]int{10, 7} {
			t.Errorf("%s: fires = %v, want [10 7] (the later probe re-armed on hit 4)", adaptiveModes[i].name, n)
		}
	}
}

// TestEjectEntryAndEdgeListsMidRun ejects every probe of a block-entry
// list and of an edge list from a probe body inside the loop, then
// re-arms them: fires, skips and cycles are hand-counted and identical
// on every tier, whose dispatcher skips a list with no enabled probe.
func TestEjectEntryAndEdgeListsMidRun(t *testing.T) {
	type result struct {
		fires, skips [4]uint64
		probeCycles  uint64
		total        uint64
	}
	var results []result
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		col := obs.New(obs.Options{})
		v := New(prog, Config{Obs: col, ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
		head := instByOp(t, prog, isa.Add, 0).Addr // loop head: 10 entries, 9 back edges
		ctl := instByOp(t, prog, isa.Add, 1).Addr  // same block, after the entry fires
		noop := func(*Ctx) {}
		mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Cost: 10, Label: "e1", Fn: noop})
		mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Cost: 20, Label: "e2", Stride: 2, Fn: noop})
		mustAdd(t, v, Site{When: AtEdge, Addr: head, From: head}, Probe{Cost: 30, Label: "g1", Fn: noop})
		mustAdd(t, v, Site{When: AtEdge, Addr: head, From: head}, Probe{Cost: 40, Label: "g2", Fn: noop})
		infos := v.AdaptiveProbes(nil)
		iter := 0
		mustAdd(t, v, Site{When: BeforeInst, Addr: ctl}, Probe{Label: "ctl", Fn: func(*Ctx) {
			iter++
			if iter == 3 || iter == 7 {
				for _, in := range infos {
					v.SetProbeEnabled(in.ID, iter == 7)
				}
			}
		}})
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot("")
		var r result
		for i := range r.fires {
			r.fires[i], r.skips[i] = s.Probes[i].Fires, s.Probes[i].Skips
		}
		r.probeCycles, r.total = s.ProbeCycles, res.Cycles
		// Entries fire in iterations 1-3 (ejected during 3, after the
		// entry fired) and 8-10 (re-armed during 7); the back edge enters
		// iterations 2-10, so it fires in 2-3 and 8-10. e2 samples every
		// second hit and re-arming restarts its countdown: skip, fire,
		// skip, then skip, fire, skip.
		want := result{fires: [4]uint64{6, 2, 5, 5}, skips: [4]uint64{0, 4, 0, 0}}
		want.probeCycles = 6*10 + 2*20 + 4*SampleGateCost + 5*30 + 5*40
		if r.fires != want.fires || r.skips != want.skips || r.probeCycles != want.probeCycles {
			t.Errorf("%s: fires %v skips %v probe cycles %d, want %v %v %d",
				m.name, r.fires, r.skips, r.probeCycles, want.fires, want.skips, want.probeCycles)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("%s diverges from %s: %+v vs %+v",
				adaptiveModes[i].name, adaptiveModes[0].name, results[i], results[0])
		}
	}
}

// TestEdgeRearmsEntryOfSameBlock: an edge probe that re-arms an ejected
// entry probe of its destination block sees it fire on the same
// dispatch, since the entry list is consulted after the edge list
// fired.
func TestEdgeRearmsEntryOfSameBlock(t *testing.T) {
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		v := New(prog, Config{Obs: obs.New(obs.Options{}), ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
		head := instByOp(t, prog, isa.Add, 0).Addr
		entries, edges := 0, 0
		mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Label: "entry", Fn: func(*Ctx) { entries++ }})
		entry := v.AdaptiveProbes(nil)[0].ID
		mustAdd(t, v, Site{When: AtEdge, Addr: head, From: head}, Probe{Label: "edge", Fn: func(*Ctx) {
			// The fourth back edge enters iteration 5.
			if edges++; edges == 4 {
				v.SetProbeEnabled(entry, true)
			}
		}})
		v.OnStart(func(*Ctx) { v.SetProbeEnabled(entry, false) })
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if entries != 6 || edges != 9 {
			t.Errorf("%s: entry fired %d times and edge %d, want 6 (iterations 5-10) and 9", m.name, entries, edges)
		}
	}
}

// TestRearmLaterEntryProbeOfSameList is TestRearmLaterProbeOfSameList
// for a block-entry list: while one probe of the list is enabled the
// whole list is read live, so the later probe fires in the same pass.
func TestRearmLaterEntryProbeOfSameList(t *testing.T) {
	for _, m := range adaptiveModes {
		prog := build(t, sumSrc)
		v := New(prog, Config{Obs: obs.New(obs.Options{}), ExecMode: m.mode, NoInline: m.noInline, Adaptive: true})
		head := instByOp(t, prog, isa.Add, 0).Addr // 10 entries
		var n [2]int
		var later obs.ProbeID
		mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Label: "arm", Fn: func(*Ctx) {
			if n[0]++; n[0] == 4 {
				v.SetProbeEnabled(later, true)
			}
		}})
		mustAdd(t, v, Site{When: AtBlockEntry, Addr: head}, Probe{Label: "later", Fn: func(*Ctx) { n[1]++ }})
		later = v.AdaptiveProbes(nil)[1].ID
		v.OnStart(func(*Ctx) { v.SetProbeEnabled(later, false) })
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if n != [2]int{10, 7} {
			t.Errorf("%s: fires = %v, want [10 7] (the later probe re-armed on entry 4)", m.name, n)
		}
	}
}

// TestAdaptiveProbesAndStrideControl covers the introspection and
// control API: AdaptiveProbes listing, stride override and restore.
func TestAdaptiveProbesAndStrideControl(t *testing.T) {
	prog := build(t, sumSrc)
	col := obs.New(obs.Options{})
	v := New(prog, Config{Obs: col})
	addr := instByOp(t, prog, isa.Add, 0).Addr
	fires := 0
	if err := v.Add(Site{When: BeforeInst, Addr: addr}, Probe{Cost: 26, Label: "p", Stride: 4, Fn: func(c *Ctx) { fires++ }}); err != nil {
		t.Fatal(err)
	}
	infos := v.AdaptiveProbes(nil)
	if len(infos) != 1 {
		t.Fatalf("AdaptiveProbes = %d entries, want 1", len(infos))
	}
	id := infos[0].ID
	if in := infos[0]; in.ID.Index() != 1 || in.Stride != 4 || in.BaseStride != 4 || !in.Enabled {
		t.Errorf("ProbeInfo = %+v", in)
	}
	if !v.SetProbeStride(id, 2) {
		t.Fatal("SetProbeStride: probe not found")
	}
	if in := v.AdaptiveProbes(nil)[0]; in.Stride != 2 || in.BaseStride != 4 {
		t.Errorf("after override: %+v", in)
	}
	if !v.SetProbeStride(id, 0) {
		t.Fatal("SetProbeStride(0): probe not found")
	}
	if in := v.AdaptiveProbes(nil)[0]; in.Stride != 4 {
		t.Errorf("stride restore: %+v", in)
	}
	if v.SetProbeStride(obs.ProbeID(999), 2) {
		t.Error("SetProbeStride on unknown id reported success")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 2 { // 10 hits at stride 4 -> hits 4 and 8
		t.Errorf("fires = %d, want 2", fires)
	}
}
