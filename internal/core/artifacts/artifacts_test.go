package artifacts

import (
	"sync"
	"testing"

	"repro/internal/core/engine"
	"repro/internal/obs"
	"repro/internal/progs"
)

func TestToolCacheKeyedBySource(t *testing.T) {
	c := New(Options{})
	srcA := progs.MustSource(progs.InstCountBasic)
	srcB := progs.MustSource(progs.OpcodeMix)

	a1, lk, err := c.Tool(srcA)
	if err != nil {
		t.Fatalf("Tool(a): %v", err)
	}
	if lk.Hit {
		t.Fatalf("first lookup reported a hit")
	}
	a2, lk2, err := c.Tool(srcA)
	if err != nil {
		t.Fatalf("Tool(a) again: %v", err)
	}
	if !lk2.Hit {
		t.Fatalf("second lookup of same source missed")
	}
	if a1 != a2 {
		t.Fatalf("same source produced distinct tool pointers")
	}
	b, lkb, err := c.Tool(srcB)
	if err != nil {
		t.Fatalf("Tool(b): %v", err)
	}
	if lkb.Hit {
		t.Fatalf("different source reported a hit")
	}
	if b == a1 {
		t.Fatalf("different sources shared a tool entry")
	}

	s := c.Stats()
	if s.ToolHits != 1 || s.ToolMisses != 2 || s.Tools != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 live", s)
	}
}

func TestToolCacheCompileError(t *testing.T) {
	c := New(Options{})
	if _, _, err := c.Tool("inst I { this is not cinnamon"); err == nil {
		t.Fatalf("expected compile error")
	}
	// Errors are not cached: a later lookup of the same bad source
	// recompiles and fails again rather than serving a nil tool.
	if _, _, err := c.Tool("inst I { this is not cinnamon"); err == nil {
		t.Fatalf("expected compile error on retry")
	}
	if s := c.Stats(); s.Tools != 0 {
		t.Fatalf("failed compile left %d live entries", s.Tools)
	}
}

func TestVictimCacheKeyedByNameAndLoop(t *testing.T) {
	c := New(Options{})
	v1, lk, err := c.Victim("spin", 8)
	if err != nil {
		t.Fatalf("Victim: %v", err)
	}
	if lk.Hit {
		t.Fatalf("first victim lookup reported a hit")
	}
	v2, lk2, err := c.Victim("spin", 8)
	if err != nil {
		t.Fatalf("Victim again: %v", err)
	}
	if !lk2.Hit || v1 != v2 {
		t.Fatalf("same (victim, loop) did not share (hit=%v, same=%v)", lk2.Hit, v1 == v2)
	}

	// A different loop count changes the assembled module; it must get
	// its own entry, never the loop=8 build.
	v3, lk3, err := c.Victim("spin", 9)
	if err != nil {
		t.Fatalf("Victim loop=9: %v", err)
	}
	if lk3.Hit || v3 == v1 || v3.Prog == v1.Prog {
		t.Fatalf("different loop count shared the cached victim")
	}

	v4, _, err := c.Victim("loopy", 8)
	if err != nil {
		t.Fatalf("Victim loopy: %v", err)
	}
	if v4 == v1 {
		t.Fatalf("different victims shared an entry")
	}

	if s := c.Stats(); s.VictimHits != 1 || s.VictimMisses != 3 || s.Victims != 3 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 3 live", s)
	}
}

func TestTemplateKeyOptionsDoNotShare(t *testing.T) {
	c := New(Options{})
	tool, _, err := c.Tool(progs.MustSource(progs.InstCountBasic))
	if err != nil {
		t.Fatalf("Tool: %v", err)
	}
	v, _, err := c.Victim("spin", 4)
	if err != nil {
		t.Fatalf("Victim: %v", err)
	}

	base := TemplateKey{Tool: tool, Prog: v.Prog, Backend: "pin"}
	variants := []TemplateKey{
		base,
		{Tool: tool, Prog: v.Prog, Backend: "dyninst"},
		{Tool: tool, Prog: v.Prog, Backend: "pin", NoIROpt: true},
		{Tool: tool, Prog: v.Prog, Backend: "pin", Adaptive: true},
		{Tool: tool, Prog: v.Prog, Backend: "pin", PinLoopDetection: true},
	}
	// Distinct option tuples must resolve to distinct slots: storing a
	// sentinel under one key must not make any other key hit.
	for i, k := range variants {
		if _, ok := c.Template(k); ok {
			t.Fatalf("variant %d hit an empty cache", i)
		}
	}
	sentinel := new(engine.Template)
	c.PutTemplate(base, sentinel)
	if got, ok := c.Template(base); !ok || got != sentinel {
		t.Fatalf("stored template not found under its key")
	}
	for i, k := range variants[1:] {
		if _, ok := c.Template(k); ok {
			t.Fatalf("variant %d hit the template stored under the base key", i+1)
		}
	}
}

func TestEvictionBoundsAndCounters(t *testing.T) {
	c := New(Options{VictimCap: 2})
	loops := []int{1, 2, 3, 4}
	for _, n := range loops {
		if _, _, err := c.Victim("spin", n); err != nil {
			t.Fatalf("Victim loop=%d: %v", n, err)
		}
	}
	s := c.Stats()
	if s.Victims != 2 {
		t.Fatalf("live victims = %d, want 2 (cap)", s.Victims)
	}
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	// LRU: loop=3 and loop=4 survive; loop=1 was evicted first.
	if _, lk, err := c.Victim("spin", 4); err != nil || !lk.Hit {
		t.Fatalf("most recent entry evicted (hit=%v err=%v)", lk.Hit, err)
	}
	if _, lk, err := c.Victim("spin", 1); err != nil || lk.Hit {
		t.Fatalf("oldest entry survived past cap (hit=%v err=%v)", lk.Hit, err)
	}
}

func TestConcurrentLookupsConverge(t *testing.T) {
	c := New(Options{})
	src := progs.MustSource(progs.LoopCoverage)
	const workers = 8
	tools := make([]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tool, _, err := c.Tool(src)
			if err != nil {
				t.Errorf("Tool: %v", err)
				return
			}
			v, _, err := c.Victim("spin", 16)
			if err != nil {
				t.Errorf("Victim: %v", err)
				return
			}
			tools[i] = [2]any{tool, v}
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if tools[i] != tools[0] {
			t.Fatalf("worker %d bound different artifacts than worker 0", i)
		}
	}
	if s := c.Stats(); s.Tools != 1 || s.Victims != 1 {
		t.Fatalf("racing lookups left %d tools / %d victims, want 1/1", s.Tools, s.Victims)
	}
}

// TestLookupRecord: a lookup adds one hit or one miss, plus its
// evictions, to a session's build statistics, and a nil collector
// records nothing.
func TestLookupRecord(t *testing.T) {
	col := obs.New(obs.Options{})
	Lookup{Hit: true}.Record(col)
	Lookup{Evicted: 2}.Record(col)
	Lookup{}.Record(col)
	Lookup{Hit: true}.Record(nil)
	if b := col.Snapshot("").Build; b.ArtifactHits != 1 || b.ArtifactMisses != 2 || b.ArtifactEvictions != 2 {
		t.Errorf("hits=%d misses=%d evictions=%d, want 1/2/2", b.ArtifactHits, b.ArtifactMisses, b.ArtifactEvictions)
	}
}
