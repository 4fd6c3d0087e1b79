// Package artifacts is the shared artifact cache over the session build
// pipeline: the fleet-scale fast path that makes warm session startup
// near-free.
//
// Every cinnamond session (and every cinnamon.Tool.Run) repeats the
// same expensive, deterministic work: lex/parse/check/closure-compile
// the tool source, assemble and decode the looped victim, and walk the
// victim's CFE hierarchy to build the placement rule table. None of it
// depends on the session — the same separation BISM draws between its
// transformer (build once) and weaver (apply per target). This package
// caches the three artifacts:
//
//   - compiled tools, keyed by the SHA-256 of the source;
//   - assembled+looped victim programs, keyed by (victim, loop count) —
//     shareable because vm.New copies module images into private memory
//     and nothing mutates the recovered CFG after Build;
//   - instrumentation rule templates (engine.Template), keyed by the
//     (tool, victim program, backend, build options) tuple. Pointer
//     identity on the tool and program makes false sharing impossible:
//     a different source, loop count or victim yields different
//     pointers and therefore a different key.
//
// Everything cached is immutable and holds no session state; per-session
// state (probe IDs, counters, bound action closures, VM memory) is
// created by engine.Template.Instantiate and vm.New for every session,
// on a hit exactly as on the cold path, which instantiates the template
// it has just recorded.
//
// Each keyed store is bounded: inserts past the capacity evict the
// least-recently-used entry, and evictions are counted so cache
// pressure is visible in the fleet metrics.
package artifacts

import (
	"crypto/sha256"
	"sync"

	"repro/internal/cfg"
	"repro/internal/core/engine"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Default per-kind entry capacities. Templates outnumber tools and
// victims (one per tool×victim×backend×options combination), so their
// store is larger.
const (
	defaultToolCap     = 64
	defaultVictimCap   = 64
	defaultTemplateCap = 256
)

// Options parameterizes a Cache.
type Options struct {
	// ToolCap, VictimCap and TemplateCap bound the three stores
	// (defaults 64/64/256; negative disables the bound).
	ToolCap     int
	VictimCap   int
	TemplateCap int
}

// Stats is a point-in-time view of cache effectiveness, per artifact
// kind, plus total evictions.
type Stats struct {
	ToolHits, ToolMisses         uint64
	VictimHits, VictimMisses     uint64
	TemplateHits, TemplateMisses uint64
	Evictions                    uint64
	// Tools, Victims and Templates count live entries.
	Tools, Victims, Templates int
}

// Hits and Misses total over the three artifact kinds.
func (s Stats) Hits() uint64 { return s.ToolHits + s.VictimHits + s.TemplateHits }

// Misses totals over the three artifact kinds.
func (s Stats) Misses() uint64 { return s.ToolMisses + s.VictimMisses + s.TemplateMisses }

// Victim is one cached victim build: the assembled+looped module loaded
// into an address space with its control flow recovered. Prog is shared
// read-only across sessions (the VM copies images into private memory).
type Victim struct {
	Mod  *obj.Module
	Prog *cfg.Program
}

// TemplateKey identifies one rule template: the build inputs plus every
// engine/backend option that changes what BuildTemplate records. Runtime
// options (fuel, writers, collectors, VM tier) are deliberately absent —
// they bind per session at Instantiate/run time.
type TemplateKey struct {
	Tool *engine.CompiledTool
	Prog *cfg.Program
	// Backend is the placer name; module scope and loop support differ
	// per backend, so tables are never shared across frameworks.
	Backend string
	// PinLoopDetection, NoIROpt and Adaptive change the table itself
	// (loop preflight and edge lowering; optimization passes;
	// coalescing).
	PinLoopDetection bool
	NoIROpt          bool
	Adaptive         bool
}

// Lookup is the outcome of one cache consultation, for per-session
// accounting: exactly one of Hit/Miss is true per lookup, and Evicted
// counts entries the resulting insert displaced.
type Lookup struct {
	Hit     bool
	Evicted int
}

// Record adds the lookup to a session's build statistics: one artifact
// hit or miss, plus the evictions its insert caused. A nil collector
// records nothing.
func (lk Lookup) Record(col *obs.Collector) {
	if col == nil {
		return
	}
	col.MutateBuild(func(b *obs.BuildStats) {
		if lk.Hit {
			b.ArtifactHits++
		} else {
			b.ArtifactMisses++
		}
		b.ArtifactEvictions += lk.Evicted
	})
}

type toolKey [sha256.Size]byte

type victimKey struct {
	name string
	loop int
}

// store is one bounded LRU map. Values are immutable once inserted;
// the mutex only guards the index.
type store[K comparable, V any] struct {
	cap     int
	entries map[K]V
	order   []K // LRU order, oldest first
}

func newStore[K comparable, V any](capacity int) *store[K, V] {
	return &store[K, V]{cap: capacity, entries: make(map[K]V)}
}

func (s *store[K, V]) get(k K) (V, bool) {
	v, ok := s.entries[k]
	if ok {
		s.touch(k)
	}
	return v, ok
}

func (s *store[K, V]) touch(k K) {
	for i, ek := range s.order {
		if ek == k {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = k
			return
		}
	}
}

// put inserts k (overwriting a racing duplicate) and returns how many
// entries were evicted to stay within capacity.
func (s *store[K, V]) put(k K, v V) int {
	if _, dup := s.entries[k]; dup {
		s.entries[k] = v
		s.touch(k)
		return 0
	}
	s.entries[k] = v
	s.order = append(s.order, k)
	evicted := 0
	for s.cap > 0 && len(s.order) > s.cap {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, victim)
		evicted++
	}
	return evicted
}

// Cache is the keyed, concurrency-safe artifact cache. The zero value
// is not usable; construct with New.
type Cache struct {
	mu        sync.Mutex
	tools     *store[toolKey, *engine.CompiledTool]
	victims   *store[victimKey, *Victim]
	templates *store[TemplateKey, *engine.Template]
	stats     Stats
}

// New creates an empty cache.
func New(opts Options) *Cache {
	capOr := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	return &Cache{
		tools:     newStore[toolKey, *engine.CompiledTool](capOr(opts.ToolCap, defaultToolCap)),
		victims:   newStore[victimKey, *Victim](capOr(opts.VictimCap, defaultVictimCap)),
		templates: newStore[TemplateKey, *engine.Template](capOr(opts.TemplateCap, defaultTemplateCap)),
	}
}

// Tool returns the compiled form of src, compiling on miss. Two sources
// share an entry only when byte-identical.
func (c *Cache) Tool(src string) (*engine.CompiledTool, Lookup, error) {
	k := toolKey(sha256.Sum256([]byte(src)))
	c.mu.Lock()
	if t, ok := c.tools.get(k); ok {
		c.stats.ToolHits++
		c.mu.Unlock()
		return t, Lookup{Hit: true}, nil
	}
	c.stats.ToolMisses++
	c.mu.Unlock()

	t, err := engine.Compile(src)
	if err != nil {
		return nil, Lookup{}, err
	}
	c.mu.Lock()
	// A racing compile of the same source may have inserted already;
	// keep the first entry so every later session binds to one pointer
	// (and with it one template key).
	if prev, ok := c.tools.get(k); ok {
		c.mu.Unlock()
		return prev, Lookup{}, nil
	}
	ev := c.tools.put(k, t)
	c.stats.Evictions += uint64(ev)
	c.mu.Unlock()
	return t, Lookup{Evicted: ev}, nil
}

// Victim returns the loaded, CFG-recovered program of the named victim
// looped loop times, building on miss.
func (c *Cache) Victim(name string, loop int) (*Victim, Lookup, error) {
	k := victimKey{name: name, loop: loop}
	c.mu.Lock()
	if v, ok := c.victims.get(k); ok {
		c.stats.VictimHits++
		c.mu.Unlock()
		return v, Lookup{Hit: true}, nil
	}
	c.stats.VictimMisses++
	c.mu.Unlock()

	mod, err := workload.LoopedVictim(name, loop)
	if err != nil {
		return nil, Lookup{}, err
	}
	p, err := obj.Load([]*obj.Module{mod}, vm.RuntimeExterns())
	if err != nil {
		return nil, Lookup{}, err
	}
	prog, err := cfg.Build(p)
	if err != nil {
		return nil, Lookup{}, err
	}
	v := &Victim{Mod: mod, Prog: prog}
	c.mu.Lock()
	if prev, ok := c.victims.get(k); ok {
		c.mu.Unlock()
		return prev, Lookup{}, nil
	}
	ev := c.victims.put(k, v)
	c.stats.Evictions += uint64(ev)
	c.mu.Unlock()
	return v, Lookup{Evicted: ev}, nil
}

// Template returns the cached rule template for the key, if any.
func (c *Cache) Template(k TemplateKey) (*engine.Template, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.templates.get(k)
	if ok {
		c.stats.TemplateHits++
	} else {
		c.stats.TemplateMisses++
	}
	return t, ok
}

// PutTemplate stores a freshly built template and returns how many
// entries its insert evicted.
func (c *Cache) PutTemplate(k TemplateKey, t *engine.Template) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.templates.put(k, t)
	c.stats.Evictions += uint64(ev)
	return ev
}

// Stats returns a point-in-time view of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Tools = len(c.tools.entries)
	s.Victims = len(c.victims.entries)
	s.Templates = len(c.templates.entries)
	return s
}

// shared is the process-wide default cache cinnamon.Run* consults (the
// fleet scheduler builds its own so daemon stats are self-contained).
var (
	sharedOnce sync.Once
	sharedC    *Cache
)

// Shared returns the process-wide default cache.
func Shared() *Cache {
	sharedOnce.Do(func() { sharedC = New(Options{}) })
	return sharedC
}
