package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegisterAndFire(t *testing.T) {
	c := New(Options{})
	a := c.RegisterProbe(ProbeMeta{Label: "before inst @1:1", Trigger: TriggerBefore, Mechanism: MechCleanCall, Addr: 0x1000, DispatchCost: 30})
	b := c.RegisterProbe(ProbeMeta{Label: "entry basicblock @2:3", Trigger: TriggerBlockEntry, Mechanism: MechSnippet, Addr: 0x2000, DispatchCost: 14})
	if a.Index() != 1 || b.Index() != 2 {
		t.Fatalf("indexes = %d, %d, want 1, 2", a.Index(), b.Index())
	}
	if a.gen() == 0 || a.gen() != b.gen() {
		t.Fatalf("ids %#x, %#x must share the collector's nonzero generation", a, b)
	}
	for i := 0; i < 3; i++ {
		c.Fire(a, 30, 0x1000)
	}
	c.Fire(b, 14, 0x2000)
	c.Fire(NoProbe, 7, 0x3000)  // untagged
	c.Fire(ProbeID(99), 5, 0x4) // foreign id: must not panic, lands untracked

	s := c.Snapshot("pin")
	if s.Backend != "pin" {
		t.Errorf("backend = %q", s.Backend)
	}
	if got := s.Probes[0].Fires; got != 3 {
		t.Errorf("probe a fires = %d, want 3", got)
	}
	if got := s.Probes[0].Cycles; got != 90 {
		t.Errorf("probe a cycles = %d, want 90", got)
	}
	if got := s.Probes[1].Fires; got != 1 {
		t.Errorf("probe b fires = %d, want 1", got)
	}
	if s.UntrackedFires != 2 || s.UntrackedCycles != 12 {
		t.Errorf("untracked = %d fires / %d cycles, want 2 / 12", s.UntrackedFires, s.UntrackedCycles)
	}
	if s.TotalFires != 6 {
		t.Errorf("total fires = %d, want 6", s.TotalFires)
	}
	if s.ProbeCycles != 90+14+12 {
		t.Errorf("probe cycles = %d, want %d", s.ProbeCycles, 90+14+12)
	}
	if got := s.FiresWhere(func(p ProbeStats) bool { return p.Trigger == TriggerBefore }); got != 3 {
		t.Errorf("FiresWhere(before) = %d, want 3", got)
	}
	if got := s.CyclesWhere(func(p ProbeStats) bool { return p.Mechanism == MechSnippet }); got != 14 {
		t.Errorf("CyclesWhere(snippet) = %d, want 14", got)
	}
}

// TestRegisterProbeCountsMechanisms: every registered row counts in the
// build statistics under its mechanism, and a row naming none counts
// nowhere.
func TestRegisterProbeCountsMechanisms(t *testing.T) {
	c := New(Options{})
	for _, m := range []string{MechCleanCall, MechInlinedCall, MechCleanCall, MechSnippet, "", MechInlinedCall, MechCleanCall} {
		c.RegisterProbe(ProbeMeta{Mechanism: m})
	}
	s := c.Snapshot("")
	if b := s.Build; b.CleanCalls != 3 || b.InlinedCalls != 2 || b.Snippets != 1 {
		t.Errorf("clean=%d inlined=%d snippets=%d, want 3/2/1", b.CleanCalls, b.InlinedCalls, b.Snippets)
	}
	if len(s.Probes) != 7 {
		t.Errorf("%d rows, want 7", len(s.Probes))
	}
}

// TestCrossCollectorFireLandsUntracked is the regression test for the
// silent misattribution window: a ProbeID minted by collector A, whose
// index is also in range on collector B, must land in B's untracked
// bucket — not in B's same-index slot. The parallel bench harness runs
// one collector per (benchmark, framework) cell, so without the
// generation tag a leaked ID would corrupt a sibling cell's counters.
func TestCrossCollectorFireLandsUntracked(t *testing.T) {
	a := New(Options{})
	b := New(Options{})
	idA := a.RegisterProbe(ProbeMeta{Label: "a's probe"})
	idB := b.RegisterProbe(ProbeMeta{Label: "b's probe"})
	if idA.Index() != 1 || idB.Index() != 1 {
		t.Fatalf("both ids should have index 1, got %d, %d", idA.Index(), idB.Index())
	}

	b.Fire(idA, 10, 0x100) // foreign: in-range index, wrong generation
	b.Fire(idB, 3, 0x200)  // b's own

	s := b.Snapshot("test")
	if s.Probes[0].Fires != 1 || s.Probes[0].Cycles != 3 {
		t.Errorf("b's probe = %d fires / %d cycles, want 1 / 3 (foreign firing misattributed?)",
			s.Probes[0].Fires, s.Probes[0].Cycles)
	}
	if s.UntrackedFires != 1 || s.UntrackedCycles != 10 {
		t.Errorf("untracked = %d fires / %d cycles, want 1 / 10", s.UntrackedFires, s.UntrackedCycles)
	}
	if s.TotalFires != 2 {
		t.Errorf("total fires = %d, want 2 (firing lost)", s.TotalFires)
	}
}

// TestConcurrentSnapshotDuringFire scrapes the collector from several
// goroutines while the writer fires, checking (under -race) that the
// read path is data-race-free and that every counter is monotonically
// non-decreasing across consecutive snapshots.
func TestConcurrentSnapshotDuringFire(t *testing.T) {
	c := New(Options{TraceCap: 16})
	id := c.RegisterProbe(ProbeMeta{Label: "hot", Trigger: TriggerBefore, Mechanism: MechCleanCall})

	const fires = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < fires; i++ {
			c.Fire(id, 3, uint64(i))
			if i%1000 == 0 {
				// Registration mid-run, as dynamic frameworks do at
				// block-translation time.
				c.RegisterProbe(ProbeMeta{Label: "late"})
				c.NoteTranslation(7)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prevFires, prevCycles, prevTranslated uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				s := c.Snapshot("test")
				if s.TotalFires < prevFires {
					t.Errorf("total fires went backwards: %d -> %d", prevFires, s.TotalFires)
					return
				}
				if s.ProbeCycles < prevCycles {
					t.Errorf("probe cycles went backwards: %d -> %d", prevCycles, s.ProbeCycles)
					return
				}
				if tc := uint64(s.Build.BlocksTranslated); tc < prevTranslated {
					t.Errorf("blocks translated went backwards: %d -> %d", prevTranslated, tc)
					return
				}
				prevFires, prevCycles = s.TotalFires, s.ProbeCycles
				prevTranslated = uint64(s.Build.BlocksTranslated)
				for _, ev := range s.Trace.Events {
					// push(id, pc=i, cost=3): a torn event that slipped
					// through seq validation would break this.
					if ev.Cost != 3 {
						t.Errorf("torn trace event: %+v", ev)
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()

	s := c.Snapshot("test")
	if got := s.Probes[0].Fires; got != fires {
		t.Errorf("final fires = %d, want %d", got, fires)
	}
	if got := s.Probes[0].Cycles; got != 3*fires {
		t.Errorf("final cycles = %d, want %d", got, 3*fires)
	}
}

// TestSubscribeTap checks the streaming tap: events arrive on the
// channel with normalized probe indexes, a full channel drops instead
// of blocking, and drop counts are surfaced and survive unsubscribe.
func TestSubscribeTap(t *testing.T) {
	c := New(Options{}) // no trace ring: the tap works independently
	id := c.RegisterProbe(ProbeMeta{Label: "p"})

	ch := make(chan TraceEvent, 2)
	sub := c.Subscribe(ch)
	if c.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", c.Subscribers())
	}

	for i := 0; i < 5; i++ {
		c.Fire(id, 10, uint64(0x100+i)) // only 2 fit; 3 must drop, not block
	}
	if got := sub.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	ev := <-ch
	if ev.Seq != 0 || ev.Probe != 1 || ev.PC != 0x100 || ev.Cost != 10 {
		t.Errorf("first event = %+v, want seq 0, probe 1, pc 0x100, cost 10", ev)
	}

	c.Unsubscribe(sub)
	if c.Subscribers() != 0 {
		t.Errorf("subscribers after unsubscribe = %d", c.Subscribers())
	}
	if got := c.SubscriberDrops(); got != 3 {
		t.Errorf("retired drops = %d, want 3", got)
	}
	c.Fire(id, 10, 0x900) // no subscribers: must not send or panic
	if len(ch) != 1 {
		t.Errorf("fire after unsubscribe reached the channel")
	}
}

func TestTraceRingWraparound(t *testing.T) {
	const cap = 4
	c := New(Options{TraceCap: cap})
	id := c.RegisterProbe(ProbeMeta{Label: "p", Trigger: TriggerBefore, Mechanism: MechCleanCall})
	const total = 11
	for i := 0; i < total; i++ {
		c.Fire(id, uint64(i), uint64(0x100+i))
	}
	s := c.Snapshot("janus")
	tr := s.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Cap != cap {
		t.Errorf("cap = %d, want %d", tr.Cap, cap)
	}
	if tr.Dropped != total-cap {
		t.Errorf("dropped = %d, want %d", tr.Dropped, total-cap)
	}
	if len(tr.Events) != cap {
		t.Fatalf("len(events) = %d, want %d", len(tr.Events), cap)
	}
	// The window must be the LAST cap firings with contiguous sequence
	// numbers, oldest first.
	for i, e := range tr.Events {
		wantSeq := uint64(total - cap + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.PC != 0x100+wantSeq {
			t.Errorf("event %d pc = %#x, want %#x", i, e.PC, 0x100+wantSeq)
		}
		if e.Probe != 1 {
			t.Errorf("event %d probe = %d, want normalized index 1", i, e.Probe)
		}
	}
}

func TestTraceUnderfill(t *testing.T) {
	c := New(Options{TraceCap: 8})
	id := c.RegisterProbe(ProbeMeta{Label: "p"})
	c.Fire(id, 1, 0x10)
	c.Fire(id, 2, 0x20)
	tr := c.Snapshot("dyninst").Trace
	if tr.Dropped != 0 || len(tr.Events) != 2 {
		t.Fatalf("dropped=%d events=%d, want 0/2", tr.Dropped, len(tr.Events))
	}
	if tr.Events[0].Seq != 0 || tr.Events[1].Seq != 1 {
		t.Errorf("seqs = %d,%d, want 0,1", tr.Events[0].Seq, tr.Events[1].Seq)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := New(Options{TraceCap: 2})
	id := c.RegisterProbe(ProbeMeta{Label: "before inst @3:3", Trigger: TriggerBefore, Mechanism: MechInlinedCall, Addr: 0x40, DispatchCost: 12})
	c.Fire(id, 12, 0x40)
	c.MutateBuild(func(b *BuildStats) { b.ActionsPlaced = 1 })
	c.NoteTranslation(300)

	var buf bytes.Buffer
	if err := c.Snapshot("janus").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Backend != "janus" || back.TotalFires != 1 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	if back.Build.BlocksTranslated != 1 || back.Build.TranslationCycles != 300 {
		t.Errorf("build stats lost: %+v", back.Build)
	}
	if len(back.Probes) != 1 || back.Probes[0].Label != "before inst @3:3" {
		t.Errorf("probe meta lost: %+v", back.Probes)
	}
}

func TestWriteTableGroupsPlacements(t *testing.T) {
	c := New(Options{})
	// Two placements (sites) of the same action must fold into one row.
	for i := 0; i < 2; i++ {
		id := c.RegisterProbe(ProbeMeta{Label: "entry basicblock @5:3", Trigger: TriggerBlockEntry, Mechanism: MechSnippet, Addr: uint64(0x100 * (i + 1)), DispatchCost: 14})
		c.Fire(id, 14, uint64(0x100*(i+1)))
	}
	var buf bytes.Buffer
	c.Snapshot("dyninst").WriteTable(&buf)
	out := buf.String()
	if n := strings.Count(out, "entry basicblock @5:3"); n != 1 {
		t.Errorf("want 1 grouped row, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "total: 2 fires") {
		t.Errorf("missing total line:\n%s", out)
	}
}
