package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// ProbeStats is the per-probe report row: the probe's metadata plus its
// accumulated firing counters.
type ProbeStats struct {
	ID ProbeID `json:"id"`
	ProbeMeta
	// Fires is how many times the probe fired.
	Fires uint64 `json:"fires"`
	// Skips is how many hits the probe's sampling gate swallowed (0 for
	// unsampled probes).
	Skips uint64 `json:"skips,omitempty"`
	// Cycles is the total instrumentation cost the probe was charged:
	// Fires × DispatchCost + Skips × gate cost under the deterministic
	// cost model.
	Cycles uint64 `json:"cycles"`
}

// Stats is the exported observability report of one run.
type Stats struct {
	// Backend names the framework the run used.
	Backend string `json:"backend"`
	// Build holds the instrumentation-time statistics.
	Build BuildStats `json:"build"`
	// Probes lists every registered probe with its firing counters, in
	// registration order.
	Probes []ProbeStats `json:"probes"`
	// TotalFires and ProbeCycles aggregate over Probes plus the
	// untracked bucket: every firing of the run is accounted here.
	TotalFires  uint64 `json:"total_fires"`
	ProbeCycles uint64 `json:"probe_cycles"`
	// UntrackedFires/UntrackedCycles accumulate firings that reached no
	// registered row. The machine registers a row for every probe it
	// installs, so only a probe registered past MaxProbes, or an ID
	// minted by another collector, lands here.
	UntrackedFires  uint64 `json:"untracked_fires,omitempty"`
	UntrackedCycles uint64 `json:"untracked_cycles,omitempty"`
	// TotalSkips and UntrackedSkips aggregate sampling-gate skips the
	// same way TotalFires aggregates firings.
	TotalSkips     uint64 `json:"total_skips,omitempty"`
	UntrackedSkips uint64 `json:"untracked_skips,omitempty"`
	// Trace is the bounded firing-event trace (nil unless enabled).
	Trace *Trace `json:"trace,omitempty"`
	// Governor carries the overhead governor's state when one is
	// attached to the run (see internal/governor; typed as any to keep
	// the dependency arrow pointing at obs).
	Governor any `json:"governor,omitempty"`
}

// Snapshot exports the collector's state as a self-contained report.
// Safe to call from any goroutine at any time, including while the
// instrumented run is executing: counters are loaded atomically, totals
// are computed from the loaded values (so they always reconcile within
// the snapshot), and every counter is monotonically non-decreasing
// across consecutive snapshots. Probe IDs in the report are plain slot
// indexes (1..n), matching TraceEvent.Probe.
func (c *Collector) Snapshot(backendName string) *Stats {
	return c.SnapshotInto(backendName, nil)
}

// CyclesInto reads every registered probe's cycle counter into dst,
// grown as needed, and returns it with the probe-cycle total, untracked
// cycles included: the per-row Cycles and the ProbeCycles of a
// Snapshot, read without building a report. It also returns the
// probes' metadata in slot order, shared with the collector, which
// callers must not modify. It allocates only to grow dst; a controller
// polling on the run goroutine (the overhead governor) calls it at
// every pace point. Safe from any goroutine.
func (c *Collector) CyclesInto(dst []uint64) ([]uint64, uint64, []ProbeMeta) {
	c.mu.Lock()
	metas := c.metas
	slots := c.slots
	c.mu.Unlock()
	dst = slices.Grow(dst[:0], len(slots))
	total := c.untrackedCycles.Load()
	for i := range slots {
		n := slots[i].cycles.Load()
		dst = append(dst, n)
		total += n
	}
	return dst, total, metas
}

// SnapshotInto is Snapshot reusing a previous report's allocations:
// when reuse is non-nil its Probes slice backs the new report (grown if
// needed) and every other field is overwritten. The fleet scrape path
// calls it with pooled reports so steady-state scrapes stop allocating
// one probe table per session per scrape. Callers must not retain the
// previous contents of reuse.
func (c *Collector) SnapshotInto(backendName string, reuse *Stats) *Stats {
	c.mu.Lock()
	metas := c.metas
	slots := c.slots
	build := c.build
	c.mu.Unlock()

	s := reuse
	if s == nil {
		s = &Stats{}
	}
	probes := s.Probes
	*s = Stats{Backend: backendName, Build: build}
	if cap(probes) >= len(metas) {
		s.Probes = probes[:len(metas)]
	} else {
		s.Probes = make([]ProbeStats, len(metas))
	}
	for i, m := range metas {
		slot := &slots[i]
		fires := slot.fires.Load()
		skips := slot.skips.Load()
		cycles := slot.cycles.Load()
		s.Probes[i] = ProbeStats{
			ID: ProbeID(i + 1), ProbeMeta: m,
			Fires: fires, Skips: skips, Cycles: cycles,
		}
		s.TotalFires += fires
		s.TotalSkips += skips
		s.ProbeCycles += cycles
	}
	s.UntrackedFires = c.untrackedFires.Load()
	s.UntrackedCycles = c.untrackedCycles.Load()
	s.UntrackedSkips = c.untrackedSkips.Load()
	s.TotalFires += s.UntrackedFires
	s.TotalSkips += s.UntrackedSkips
	s.ProbeCycles += s.UntrackedCycles
	if c.trace != nil {
		events := c.trace.events()
		var nextSeq uint64
		if n := len(events); n > 0 {
			nextSeq = events[n-1].Seq + 1
		}
		s.Trace = &Trace{
			Cap:     len(c.trace.buf),
			Dropped: c.trace.droppedAt(nextSeq),
			Events:  events,
		}
	}
	return s
}

// FiresWhere sums the fire counts of probes matching the predicate —
// the reconciliation helper tests and tools use to compare stats against
// a tool's own reported counts.
func (s *Stats) FiresWhere(match func(ProbeStats) bool) uint64 {
	var n uint64
	for _, p := range s.Probes {
		if match(p) {
			n += p.Fires
		}
	}
	return n
}

// CyclesWhere sums the attributed cycles of probes matching the
// predicate.
func (s *Stats) CyclesWhere(match func(ProbeStats) bool) uint64 {
	var n uint64
	for _, p := range s.Probes {
		if match(p) {
			n += p.Cycles
		}
	}
	return n
}

// WriteJSON writes the report as indented JSON.
func (s *Stats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// groupKey aggregates table rows: probes sharing a label and mechanism
// (e.g. the per-block placements of one action) fold into one line.
type groupKey struct {
	label, trigger, mech string
}

// WriteTable renders the human-readable report: build statistics, then
// probe groups sorted by attributed cycles (descending), then the trace
// window if one was recorded.
func (s *Stats) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "observability report — backend %s\n", s.Backend)
	b := s.Build
	fmt.Fprintf(w, "  build: actions=%d static-filtered=%d", b.ActionsPlaced, b.StaticFiltered)
	if b.RulesEmitted > 0 {
		fmt.Fprintf(w, " rules=%d", b.RulesEmitted)
	}
	if b.CleanCalls > 0 || b.InlinedCalls > 0 {
		fmt.Fprintf(w, " clean-calls=%d inlined=%d", b.CleanCalls, b.InlinedCalls)
	}
	if b.Snippets > 0 {
		fmt.Fprintf(w, " snippets=%d", b.Snippets)
	}
	if b.BlocksTranslated > 0 {
		fmt.Fprintf(w, " translated-blocks=%d (%d cycles)", b.BlocksTranslated, b.TranslationCycles)
	}
	fmt.Fprintln(w)

	type group struct {
		key    groupKey
		probes int
		fires  uint64
		skips  uint64
		cycles uint64
	}
	idx := make(map[groupKey]int)
	var groups []group
	for _, p := range s.Probes {
		k := groupKey{p.Label, p.Trigger, p.Mechanism}
		i, ok := idx[k]
		if !ok {
			i = len(groups)
			idx[k] = i
			groups = append(groups, group{key: k})
		}
		groups[i].probes++
		groups[i].fires += p.Fires
		groups[i].skips += p.Skips
		groups[i].cycles += p.Cycles
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].cycles > groups[j].cycles })

	fmt.Fprintf(w, "  %-28s %-12s %-14s %8s %12s %12s %14s\n",
		"probe", "trigger", "mechanism", "sites", "fires", "skips", "cycles")
	for _, g := range groups {
		fmt.Fprintf(w, "  %-28s %-12s %-14s %8d %12d %12d %14d\n",
			g.key.label, g.key.trigger, g.key.mech, g.probes, g.fires, g.skips, g.cycles)
	}
	if s.UntrackedFires > 0 || s.UntrackedSkips > 0 {
		fmt.Fprintf(w, "  %-28s %-12s %-14s %8s %12d %12d %14d\n",
			"(untracked)", "-", "-", "-", s.UntrackedFires, s.UntrackedSkips, s.UntrackedCycles)
	}
	fmt.Fprintf(w, "  total: %d fires, %d skips, %d probe cycles\n", s.TotalFires, s.TotalSkips, s.ProbeCycles)

	if s.Trace != nil {
		fmt.Fprintf(w, "  trace: last %d of %d events (cap %d, dropped %d)\n",
			len(s.Trace.Events), s.Trace.Dropped+uint64(len(s.Trace.Events)), s.Trace.Cap, s.Trace.Dropped)
		for _, e := range s.Trace.Events {
			label := "(untracked)"
			if e.Probe > 0 && int(e.Probe) <= len(s.Probes) {
				label = s.Probes[e.Probe-1].Label
			}
			fmt.Fprintf(w, "    #%-8d pc=%#-12x cost=%-6d %s\n", e.Seq, e.PC, e.Cost, label)
		}
	}
}
