// Package obs is the runtime observability layer: an always-compiled,
// zero-cost-when-disabled subsystem that attributes instrumentation cost
// to the probes that incur it — and, since the live-monitoring work,
// exposes that attribution to concurrent observers while the
// instrumented program is still running.
//
// The paper's evaluation (Figure 13) hinges on understanding *where*
// instrumentation overhead goes — clean calls versus inlined calls versus
// snippets, dispatch versus translation. A Collector makes that breakdown
// observable for any run: per-probe firing counters and cycle
// attribution, per-backend instrumentation-time statistics (rules
// emitted, snippets baked in, clean calls inserted, blocks translated),
// and a bounded ring-buffer trace of probe firings.
//
// The design mirrors the VM's de-mapped probe dispatch: counters live in
// pre-sized slots indexed by the ProbeID's slot index, so counting is
// two uncontended atomic adds — no map lookups, no allocation, no
// locks. The count and the event are separate calls: FireN counts n
// firings at once and SkipN n swallowed sample hits, while Event
// (guarded by the inlinable Listening check) publishes one firing. The
// VM keeps each probe's pending fires and skips itself and calls FireN
// and SkipN only when it flushes, while still publishing one event per
// firing; Fire is one firing's FireN and Event together. Registration
// (RegisterProbe) happens on cold paths only: the machine registers
// each probe it installs — ahead of execution for the static
// frameworks, at block-translation time for the dynamic ones. When no
// Collector is attached the execution substrate runs no attribution
// code at all.
//
// # Concurrency model
//
// A Collector has exactly one writer and any number of readers:
//
//   - The run goroutine calls RegisterProbe, Fire, FireN, Event, SkipN,
//     MutateBuild and NoteTranslation. These must not be called
//     concurrently with each other.
//   - Any goroutine may call Snapshot, CyclesInto, Subscribe,
//     Unsubscribe, NumProbes, SubscriberDrops and Subscribers at any
//     time, including while the run is executing. This is what makes
//     live monitoring (internal/monitor) possible: a /metrics scrape is
//     a Snapshot taken mid-run.
//
// Counters are read and written with atomic operations, so a mid-run
// Snapshot is race-free and every counter in it is monotonically
// non-decreasing across consecutive snapshots. FireN updates a probe's
// fire and cycle counters with two separate atomic adds, so a snapshot
// taken between them can observe fires without their cycles. A row lags
// the machine by at most one flush period (the VM attributes firings
// and skips when it flushes), and the final snapshot is exact.
//
// # Cross-collector attribution
//
// ProbeIDs carry a per-collector generation tag (see ProbeID), so an ID
// minted by one collector and fired on another through Fire, FireN or
// SkipN — possible when parallel harnesses juggle one collector per run
// cell — lands in the untracked bucket instead of silently incrementing
// an unrelated probe's slot.
package obs

import (
	"sync"
	"sync/atomic"
)

// ProbeID identifies a registered probe. An ID packs two fields:
//
//   - bits 0..23: the probe's 1-based slot index within its collector
//     (0 marks an untagged probe);
//   - bits 24..30: the minting collector's generation tag.
//
// The generation tag makes IDs collector-specific: Fire checks it and
// routes firings carrying a foreign or untagged ID to the untracked
// bucket, so a probe registered on one collector can never misattribute
// onto another collector's slots (parallel harnesses run one collector
// per cell, and the dense indexes would otherwise collide). Reports and
// trace events expose the plain slot index (Index), not the tagged wire
// value.
type ProbeID int32

// NoProbe is the zero ProbeID: the probe is not individually tracked.
const NoProbe ProbeID = 0

// ProbeID field layout (see the type comment).
const (
	probeIndexBits = 24
	probeIndexMask = 1<<probeIndexBits - 1
	probeGenMask   = 0x7f
	// MaxProbes is the per-collector registration capacity imposed by
	// the 24-bit slot index.
	MaxProbes = probeIndexMask
)

// Index returns the probe's 1-based slot index within its collector
// (0 for NoProbe). Stats.Probes[Index-1] is the probe's report row.
func (id ProbeID) Index() int { return int(uint32(id) & probeIndexMask) }

// gen returns the ID's collector generation tag.
func (id ProbeID) gen() uint32 { return uint32(id) >> probeIndexBits & probeGenMask }

// collectorGen mints generation tags; the 7-bit tag wraps, skipping 0
// (0 is reserved for untagged IDs and zero-value collectors).
var collectorGen atomic.Uint32

func nextGen() uint32 {
	for {
		if g := collectorGen.Add(1) & probeGenMask; g != 0 {
			return g
		}
	}
}

// Trigger names for ProbeMeta.Trigger (shared vocabulary across the
// three frameworks so reports and tests can filter uniformly).
const (
	TriggerBefore     = "before"
	TriggerAfter      = "after"
	TriggerBlockEntry = "block-entry"
	TriggerEdge       = "edge"
)

// Mechanism names for ProbeMeta.Mechanism.
const (
	MechCleanCall   = "clean-call"   // Pin analysis call / Janus non-inlined handler
	MechInlinedCall = "inlined-call" // Pin/DynamoRIO inlined dispatch
	MechSnippet     = "snippet"      // Dyninst trampoline + snippet
)

// ProbeMeta describes one placed probe for attribution reports.
type ProbeMeta struct {
	// Label identifies the tool-level origin of the probe (for Cinnamon
	// tools: trigger, target element type and source position of the
	// action, e.g. "before inst @7:3").
	Label string `json:"label"`
	// Trigger is the trigger point ("before", "after", "block-entry",
	// "edge").
	Trigger string `json:"trigger"`
	// Mechanism is how the framework dispatches the probe ("clean-call",
	// "inlined-call", "snippet").
	Mechanism string `json:"mechanism"`
	// Addr is the instrumented address (the destination block start for
	// edge probes).
	Addr uint64 `json:"addr"`
	// DispatchCost is the priced cost (cycle units) of one firing:
	// mechanism dispatch plus argument materialization plus the action
	// body estimate.
	DispatchCost uint64 `json:"dispatch_cost"`
}

// probeSlot is the hot-path counter pair of one probe. The fields are
// atomics so a live scrape can load them while the run goroutine adds;
// slots are addressed by pointer and never copied.
type probeSlot struct {
	fires  atomic.Uint64
	cycles atomic.Uint64
	// skips counts sampled-probe hits the sampling gate swallowed; their
	// gate cost lands in cycles so attribution still reconciles exactly.
	skips atomic.Uint64
}

// BuildStats are instrumentation-time statistics: what each layer did to
// set the run up, before and while code was translated. All fields are
// cold-path counters, mutated under the collector's lock (MutateBuild,
// NoteTranslation, and RegisterProbe for the per-mechanism counts).
type BuildStats struct {
	// ActionsPlaced counts compiled actions the engine handed to the
	// backend placer.
	ActionsPlaced int `json:"actions_placed"`
	// StaticFiltered counts placements skipped because a static `where`
	// constraint evaluated false at instrumentation time.
	StaticFiltered int `json:"static_filtered"`
	// RulesEmitted counts Janus rewrite rules produced by the static
	// analyzer (0 on other backends).
	RulesEmitted int `json:"rules_emitted,omitempty"`
	// CleanCalls and InlinedCalls count registered probe rows of the
	// dynamic frameworks by dispatch mechanism (Pin analysis calls,
	// Janus handlers).
	CleanCalls   int `json:"clean_calls,omitempty"`
	InlinedCalls int `json:"inlined_calls,omitempty"`
	// Snippets counts registered Dyninst snippet rows — trampolines
	// baked into the rewritten binary ahead of execution.
	Snippets int `json:"snippets,omitempty"`
	// BlocksTranslated counts just-in-time block translations, and
	// TranslationCycles the cycle units they were charged (Pin traces,
	// Janus/DynamoRIO block builds; 0 for the static rewriter).
	BlocksTranslated  int    `json:"blocks_translated,omitempty"`
	TranslationCycles uint64 `json:"translation_cycles,omitempty"`
	// WheresHoisted, CountersPromoted and ProbesCoalesced count the
	// effects of the placement-IR optimization passes (see
	// internal/core/placement): statically-decided where clauses
	// evaluated at instrumentation time, rules promoted to the
	// counter mechanism, and probes eliminated by same-site merging.
	// All zero with -ablate=ir-opt; the attribution rows themselves
	// are invariant under the passes.
	WheresHoisted    int `json:"wheres_hoisted,omitempty"`
	CountersPromoted int `json:"counters_promoted,omitempty"`
	ProbesCoalesced  int `json:"probes_coalesced,omitempty"`
	// ArtifactHits and ArtifactMisses count this session's lookups in
	// the shared artifact cache (compiled tool, built victim, rule
	// template; see internal/core/artifacts). ArtifactEvictions counts
	// cache entries this session's inserts displaced. All zero when the
	// cache is disabled or the run never consulted it.
	ArtifactHits      int `json:"artifact_hits,omitempty"`
	ArtifactMisses    int `json:"artifact_misses,omitempty"`
	ArtifactEvictions int `json:"artifact_evictions,omitempty"`
}

// Options parameterizes a Collector.
type Options struct {
	// TraceCap bounds the firing-event trace ring buffer; 0 disables
	// tracing entirely (firings are still counted, and Subscribe taps
	// still receive events).
	TraceCap int
}

// Collector accumulates observability data for one instrumented run.
// The zero Collector is usable; a nil *Collector everywhere means
// "observability disabled". See the package comment for the concurrency
// model (one writer, concurrent readers).
type Collector struct {
	// mu guards metas/slots slice headers, build, and the subscriber
	// list. Fire never takes it.
	mu    sync.Mutex
	gen   uint32
	metas []ProbeMeta // index = ProbeID.Index()-1
	slots []probeSlot // parallel to metas

	untrackedFires  atomic.Uint64
	untrackedCycles atomic.Uint64
	untrackedSkips  atomic.Uint64

	build BuildStats
	trace *ring

	// subs is the copy-on-write subscriber list (nil when nobody is
	// listening, so the hot path pays one pointer load).
	subs atomic.Pointer[[]*Subscription]
	// retiredDrops accumulates the drop counts of unsubscribed taps so
	// SubscriberDrops stays monotone across subscriber churn.
	retiredDrops atomic.Uint64
	// subSeq numbers tap events when no trace ring exists (run-goroutine
	// only; with a ring, the ring's push sequence is used).
	subSeq uint64
}

// New creates a Collector.
func New(o Options) *Collector {
	c := &Collector{gen: nextGen()}
	if o.TraceCap > 0 {
		c.trace = newRing(o.TraceCap)
	}
	return c
}

// RegisterProbe records a placed probe, counts it in the build
// statistics under its mechanism (CleanCalls, InlinedCalls or Snippets)
// and returns its tagged ID. Cold path: the machine calls it as it
// installs a probe (ahead of time for the static rewriter, at
// translation time for the dynamic frameworks). Run goroutine only.
// Registration past MaxProbes is counted but returns NoProbe: further
// firings are still counted, in the untracked bucket.
func (c *Collector) RegisterProbe(m ProbeMeta) ProbeID {
	if c.gen == 0 {
		// Zero-value Collector: mint the generation lazily.
		c.gen = nextGen()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m.Mechanism {
	case MechCleanCall:
		c.build.CleanCalls++
	case MechInlinedCall:
		c.build.InlinedCalls++
	case MechSnippet:
		c.build.Snippets++
	}
	if len(c.metas) >= MaxProbes {
		return NoProbe
	}
	c.metas = append(c.metas, m)
	c.slots = append(c.slots, probeSlot{})
	return ProbeID(c.gen<<probeIndexBits | uint32(len(c.metas)))
}

// Fire records one probe firing: cost cycle units attributed to id at
// program counter pc — two uncontended atomic adds on a pre-sized slot,
// no locks. Firings of untagged probes (NoProbe, or an ID minted by a
// different collector) fall into the untracked bucket rather than being
// lost, so totals always reconcile. Fire is its two halves,
// FireN(id, 1, cost) and Event(id, cost, pc), with the event half
// skipped when nobody is Listening. Run goroutine only; concurrent
// Snapshot calls observe the counters atomically.
func (c *Collector) Fire(id ProbeID, cost, pc uint64) {
	idx := c.slotIndex(id)
	c.count(idx, 1, cost)
	if c.Listening() {
		c.publish(idx, cost, pc)
	}
}

// FireN is Fire's count half for n firings at once: n fires and n×cost
// cycles attributed to id in one pair of atomic adds, with no trace
// events. The VM batches every probe's attribution and calls it once
// per row and flush, after publishing each firing's Event as it
// happened. Run goroutine only.
func (c *Collector) FireN(id ProbeID, n, cost uint64) {
	c.count(c.slotIndex(id), n, n*cost)
}

// Event is Fire's event half: it publishes one firing to the trace
// ring and the live taps without counting it (the firing's FireN
// follows). Callers check Listening first; with nobody listening Event
// does nothing. Run goroutine only.
func (c *Collector) Event(id ProbeID, cost, pc uint64) {
	c.publish(c.slotIndex(id), cost, pc)
}

// Listening reports whether firing events have anyone to go to: a trace
// ring or at least one Subscribe tap. It is nil-safe and inlinable, so a
// hot path can guard Event with it at the price of a nil check on a
// machine without a collector.
func (c *Collector) Listening() bool {
	return c != nil && (c.trace != nil || c.subs.Load() != nil)
}

// slotIndex normalizes id to its 1-based slot index on this collector,
// or 0 (the untracked bucket) for an untagged or foreign ID.
func (c *Collector) slotIndex(id ProbeID) int {
	if uint32(id)>>probeIndexBits&probeGenMask == c.gen {
		if i := int(uint32(id) & probeIndexMask); i >= 1 && i <= len(c.slots) {
			return i
		}
	}
	return 0
}

// count adds fires and cycles to slot idx (0: the untracked bucket).
func (c *Collector) count(idx int, fires, cycles uint64) {
	if idx != 0 {
		s := &c.slots[idx-1]
		s.fires.Add(fires)
		s.cycles.Add(cycles)
	} else {
		c.untrackedFires.Add(fires)
		c.untrackedCycles.Add(cycles)
	}
}

// publish sends one firing's event to the trace ring and every tap.
func (c *Collector) publish(idx int, cost, pc uint64) {
	tr, subs := c.trace, c.subs.Load()
	if tr == nil && subs == nil {
		return
	}
	// The published event carries the normalized slot index, the same
	// identifier Stats.Probes rows use.
	var seq uint64
	if tr != nil {
		seq = tr.push(ProbeID(idx), pc, cost)
	} else {
		seq = c.subSeq
		c.subSeq++
	}
	if subs != nil {
		ev := TraceEvent{Seq: seq, Probe: ProbeID(idx), PC: pc, Cost: cost}
		for _, s := range *subs {
			select {
			case s.ch <- ev:
			default:
				// Never block the machine on a slow observer: the event
				// is dropped and accounted on the subscription.
				s.dropped.Add(1)
			}
		}
	}
}

// SkipN records n swallowed hits of a sampled probe: the probe's gate
// ran (cost cycle units each, the decrement-and-branch) but suppressed
// the firing. Skips attribute to the probe's own slot, preserving the
// residual-zero invariant under sampling: a probe's cycles equal
// fires x dispatch cost + skips x gate cost. A machine that batches
// attribution calls it once per flush. Same discipline as FireN (no
// locks, untracked fallback). Run goroutine only.
func (c *Collector) SkipN(id ProbeID, n, cost uint64) {
	if i := c.slotIndex(id); i != 0 {
		s := &c.slots[i-1]
		s.skips.Add(n)
		s.cycles.Add(n * cost)
		return
	}
	c.untrackedSkips.Add(n)
	c.untrackedCycles.Add(n * cost)
}

// MutateBuild applies fn to the instrumentation-time counters under the
// collector's lock, so a concurrent Snapshot never observes a torn
// BuildStats. Cold path; run goroutine only.
func (c *Collector) MutateBuild(fn func(*BuildStats)) {
	c.mu.Lock()
	fn(&c.build)
	c.mu.Unlock()
}

// NoteTranslation records one just-in-time block translation and its
// charged cost.
func (c *Collector) NoteTranslation(cost uint64) {
	c.MutateBuild(func(b *BuildStats) {
		b.BlocksTranslated++
		b.TranslationCycles += cost
	})
}

// NumProbes returns the number of registered probes. Safe from any
// goroutine.
func (c *Collector) NumProbes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.metas)
}

// Subscription is one live tap on the collector's firing stream,
// created by Subscribe.
type Subscription struct {
	ch      chan TraceEvent
	dropped atomic.Uint64
}

// Dropped returns how many events this subscription missed because its
// channel was full when the machine fired (the machine never blocks on
// a slow observer).
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Subscribe taps the firing stream: every subsequent Fire sends its
// TraceEvent to ch with a non-blocking send (a full channel drops the
// event and increments the subscription's drop count instead of
// stalling the run). Safe from any goroutine. The caller keeps
// ownership of ch and must Unsubscribe before closing it.
func (c *Collector) Subscribe(ch chan TraceEvent) *Subscription {
	sub := &Subscription{ch: ch}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next []*Subscription
	if cur := c.subs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, sub)
	c.subs.Store(&next)
	return sub
}

// Unsubscribe detaches a subscription; its drop count is folded into
// the collector's retired total (SubscriberDrops stays monotone). Safe
// from any goroutine.
func (c *Collector) Unsubscribe(sub *Subscription) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.subs.Load()
	if cur == nil {
		return
	}
	var next []*Subscription
	for _, s := range *cur {
		if s != sub {
			next = append(next, s)
		} else {
			c.retiredDrops.Add(s.dropped.Load())
		}
	}
	if len(next) == 0 {
		c.subs.Store(nil)
	} else {
		c.subs.Store(&next)
	}
}

// Subscribers returns the number of live taps.
func (c *Collector) Subscribers() int {
	if subs := c.subs.Load(); subs != nil {
		return len(*subs)
	}
	return 0
}

// SubscriberDrops returns the total events dropped across all taps,
// live and retired. Monotone across scrapes.
func (c *Collector) SubscriberDrops() uint64 {
	n := c.retiredDrops.Load()
	if subs := c.subs.Load(); subs != nil {
		for _, s := range *subs {
			n += s.dropped.Load()
		}
	}
	return n
}

// TraceDropped returns how many trace-ring events have been overwritten
// by wraparound so far (0 with tracing disabled). Safe mid-run.
func (c *Collector) TraceDropped() uint64 {
	if c.trace == nil {
		return 0
	}
	return c.trace.droppedAt(c.trace.next.Load())
}
