package monitor

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/governor"
	"repro/internal/obs"
)

// The Prometheus text-exposition writer (format version 0.0.4),
// hand-rolled so the repo stays dependency-free: HELP/TYPE headers
// precede each family's samples, label values are escaped per the
// spec, and counter families end in _total. Every session's families
// carry its session/tool/victim/backend labels, and the
// cinnamon_fleet_* rollups are computed from the very same per-session
// snapshots the labelled series are rendered from — one snapshot per
// session per scrape — so the fleet totals are exactly the sum of the
// per-session series, never an approximation from a second read, and a
// scrape is internally consistent and monotone across scrapes.
//
// The scrape path is built for fleets of dozens of sessions at
// sub-second scrape intervals: per-session snapshot+aggregation work
// runs concurrently over a bounded worker pool, and all per-scrape
// allocations (snapshot probe tables, aggregation rows, rendered label
// strings, the output buffer) are pooled and reused across scrapes, so
// a steady-state scrape allocates almost nothing.

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// probeKey aggregates per-probe samples the same way Stats.WriteTable
// groups its rows: one series per (label, trigger, mechanism) — a
// multi-site action is one series, not one per placement site.
type probeKey struct {
	label, trigger, mech string
}

// sessionBase renders the identifying label set of a session.
func sessionBase(l SessionLabels) string {
	return fmt.Sprintf(`session="%s",tool="%s",victim="%s",backend="%s"`,
		escapeLabel(l.Session), escapeLabel(l.Tool), escapeLabel(l.Victim), escapeLabel(l.Backend))
}

// scrapeRow is one aggregated probe series of one session: the fully
// rendered label set plus the summed counters.
type scrapeRow struct {
	key    probeKey
	labels string
	fires  uint64
	skips  uint64
	cycles uint64
}

// sessScrape is the per-session slot of a scrape: the snapshot (its
// allocations reused across scrapes via SnapshotInto), the aggregated
// probe rows, and everything else a scrape reads from the session, all
// gathered in the parallel prep phase so rendering is a straight
// sequential walk.
type sessScrape struct {
	s    *FleetSession
	base string
	snap *obs.Stats
	rows []scrapeRow
	// rowLabels caches rendered per-probe label sets. Probe sets only
	// grow, so entries stay valid for the session's lifetime; the cache
	// resets when the slot is reused for a different session.
	rowLabels map[probeKey]string
	// aggIdx is the scratch aggregation index, cleared and reused every
	// scrape.
	aggIdx map[probeKey]int

	attempts   int
	state      SessionState
	trDropped  uint64
	subs       int
	subDropped uint64
	gov        *governor.Governor
	govState   governor.State
	govEjected int
}

// scrapeState is the pooled state of one whole scrape: the per-session
// slots plus the output buffer.
type scrapeState struct {
	slots []sessScrape
	buf   []byte
}

var scrapePool = sync.Pool{New: func() any { return &scrapeState{} }}

// scrapeWorkers bounds the snapshot/aggregation fan-out of one scrape.
func scrapeWorkers(sessions int) int {
	n := runtime.GOMAXPROCS(0)
	if n > sessions {
		n = sessions
	}
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// prep fills one session slot: snapshot, probe aggregation, lifecycle
// and trace counters. Runs concurrently across slots.
func (ss *sessScrape) prep(s *FleetSession) {
	if ss.s != s {
		// Slot reused for a different session: drop the cached labels.
		ss.s = s
		ss.rowLabels = nil
	}
	l := s.Labels()
	ss.base = s.base
	ss.snap = s.Collector().SnapshotInto(l.Backend, ss.snap)
	if ss.rowLabels == nil {
		ss.rowLabels = make(map[probeKey]string)
	}

	// Aggregate per-probe rows the same way Stats.WriteTable groups
	// them: one series per (label, trigger, mechanism).
	rows := ss.rows[:0]
	if ss.aggIdx == nil {
		ss.aggIdx = make(map[probeKey]int)
	} else {
		clear(ss.aggIdx)
	}
	idx := ss.aggIdx
	for _, p := range ss.snap.Probes {
		k := probeKey{p.Label, p.Trigger, p.Mechanism}
		i, ok := idx[k]
		if !ok {
			i = len(rows)
			idx[k] = i
			rows = append(rows, scrapeRow{key: k})
		}
		rows[i].fires += p.Fires
		rows[i].skips += p.Skips
		rows[i].cycles += p.Cycles
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].key, rows[j].key
		if a.label != b.label {
			return a.label < b.label
		}
		if a.trigger != b.trigger {
			return a.trigger < b.trigger
		}
		return a.mech < b.mech
	})
	for i := range rows {
		k := rows[i].key
		lbl, ok := ss.rowLabels[k]
		if !ok {
			lbl = fmt.Sprintf(`%s,probe="%s",trigger="%s",mechanism="%s"`,
				ss.base, escapeLabel(k.label), escapeLabel(k.trigger), escapeLabel(k.mech))
			ss.rowLabels[k] = lbl
		}
		rows[i].labels = lbl
	}
	ss.rows = rows

	ss.attempts = s.Attempts()
	ss.state = s.State()
	col := s.Collector()
	ss.trDropped = col.TraceDropped()
	ss.subs = col.Subscribers()
	ss.subDropped = col.SubscriberDrops()
	if ss.gov = s.Governor(); ss.gov != nil {
		ss.govState = ss.gov.State()
		ss.govEjected = 0
		for _, p := range ss.govState.Probes {
			if !p.Enabled {
				ss.govEjected++
			}
		}
	}
}

// Exposition rendering helpers over the pooled byte buffer, free of
// per-sample formatting allocations.

func appendHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	return b
}

func appendSample(b []byte, name, labels string, v uint64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '\n')
	return b
}

func appendSampleFloat(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	b = append(b, '\n')
	return b
}

// The family tables, in render order. Per-probe families have one
// sample per aggregated probe row, per-session families one per
// session, governor families one per governed session.

var probeFamilies = []struct {
	name, help string
	get        func(*scrapeRow) uint64
}{
	{"cinnamon_probe_fires_total", "Probe firings, by session, probe label, trigger and dispatch mechanism.", func(r *scrapeRow) uint64 { return r.fires }},
	{"cinnamon_probe_skips_total", "Sampled-probe hits swallowed by the sampling gate.", func(r *scrapeRow) uint64 { return r.skips }},
	{"cinnamon_probe_cycles_total", "Instrumentation cycle units attributed to probe firings.", func(r *scrapeRow) uint64 { return r.cycles }},
}

var sessionFamilies = []struct {
	name, help, typ string
	get             func(*sessScrape) uint64
}{
	{"cinnamon_untracked_fires_total", "Firings of probes not registered with the session's collector.", "counter", func(s *sessScrape) uint64 { return s.snap.UntrackedFires }},
	{"cinnamon_untracked_cycles_total", "Cycle units of untracked firings.", "counter", func(s *sessScrape) uint64 { return s.snap.UntrackedCycles }},
	{"cinnamon_untracked_skips_total", "Sampling-gate skips of untracked probes.", "counter", func(s *sessScrape) uint64 { return s.snap.UntrackedSkips }},
	{"cinnamon_session_fires_total", "All probe firings of the session, untracked included.", "counter", func(s *sessScrape) uint64 { return s.snap.TotalFires }},
	{"cinnamon_session_skips_total", "All sampling-gate skips of the session, untracked included.", "counter", func(s *sessScrape) uint64 { return s.snap.TotalSkips }},
	{"cinnamon_session_cycles_total", "All instrumentation cycle units of the session, untracked included.", "counter", func(s *sessScrape) uint64 { return s.snap.ProbeCycles }},
	{"cinnamon_session_attempts_total", "Scheduler attempts of the session (restarts count).", "counter", func(s *sessScrape) uint64 { return uint64(s.attempts) }},
	{"cinnamon_build_actions_placed", "Compiled actions handed to the backend placer.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.ActionsPlaced) }},
	{"cinnamon_build_static_filtered", "Placements skipped by static where-constraints.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.StaticFiltered) }},
	{"cinnamon_build_rules_emitted", "Janus rewrite rules produced by the static analyzer.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.RulesEmitted) }},
	{"cinnamon_build_clean_calls", "Clean-call attribution rows registered by the dynamic frameworks, one per share of a coalesced probe.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.CleanCalls) }},
	{"cinnamon_build_inlined_calls", "Inlined-call attribution rows registered by the dynamic frameworks, one per share of a coalesced probe.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.InlinedCalls) }},
	{"cinnamon_build_snippets", "Dyninst snippet attribution rows, one per share of a coalesced probe.", "gauge", func(s *sessScrape) uint64 { return uint64(s.snap.Build.Snippets) }},
	{"cinnamon_translated_blocks_total", "Just-in-time block translations.", "counter", func(s *sessScrape) uint64 { return uint64(s.snap.Build.BlocksTranslated) }},
	{"cinnamon_translation_cycles_total", "Cycle units charged to just-in-time block translation.", "counter", func(s *sessScrape) uint64 { return s.snap.Build.TranslationCycles }},
	{"cinnamon_trace_dropped_total", "Trace-ring events overwritten by wraparound.", "counter", func(s *sessScrape) uint64 { return s.trDropped }},
	{"cinnamon_trace_subscribers", "Live SSE/trace subscriptions on the session's collector.", "gauge", func(s *sessScrape) uint64 { return uint64(s.subs) }},
	{"cinnamon_trace_subscriber_dropped_total", "Events dropped across the session's trace subscriptions (live and retired).", "counter", func(s *sessScrape) uint64 { return s.subDropped }},
}

// governorFamilies render either an integer (getU) or a float (getF).
var governorFamilies = []struct {
	name, help, typ string
	getU            func(*sessScrape) uint64
	getF            func(*sessScrape) float64
}{
	{"cinnamon_governor_budget", "Configured probe-overhead budget (fraction of machine cycles).", "gauge", nil, func(s *sessScrape) float64 { return s.govState.Budget }},
	{"cinnamon_governor_paces_total", "Governor evaluation points so far.", "counter", func(s *sessScrape) uint64 { return s.govState.Paces }, nil},
	{"cinnamon_governor_overhead", "Attributed probe overhead of the most recent governor window.", "gauge", nil, func(s *sessScrape) float64 { return s.govState.LastOverhead }},
	{"cinnamon_governor_cum_overhead", "Attributed probe overhead of the run so far.", "gauge", nil, func(s *sessScrape) float64 { return s.govState.CumOverhead }},
	{"cinnamon_governor_decisions_total", "Control decisions taken (downsample, eject, rearm, stride).", "counter", func(s *sessScrape) uint64 { return uint64(len(s.govState.Decisions)) }, nil},
	{"cinnamon_governor_ejected_probes", "Probes currently ejected by the governor.", "gauge", func(s *sessScrape) uint64 { return uint64(s.govEjected) }, nil},
}

// WriteFleetMetrics renders the whole fleet as one exposition document:
// the body of the /metrics endpoint, exported so the scheduler's soak
// tests and the load harness can render scrapes without a listener.
func WriteFleetMetrics(w io.Writer, f *Fleet) {
	sessions := f.Sessions()

	st := scrapePool.Get().(*scrapeState)
	defer scrapePool.Put(st)
	if cap(st.slots) < len(sessions) {
		slots := make([]sessScrape, len(sessions))
		copy(slots, st.slots)
		st.slots = slots
	}
	st.slots = st.slots[:len(sessions)]

	// Prep phase: one snapshot + aggregation per session, fanned out
	// over a bounded worker pool. Each worker owns disjoint slots, so
	// the phase shares nothing but the work counter.
	if workers := scrapeWorkers(len(sessions)); workers <= 1 {
		for i := range st.slots {
			st.slots[i].prep(sessions[i])
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(st.slots); i += workers {
					st.slots[i].prep(sessions[i])
				}
			}(w)
		}
		wg.Wait()
	}

	// Render phase: a straight sequential walk over the prepped slots,
	// in the fixed family order. Families with no samples are skipped
	// entirely (no HELP/TYPE).
	b := st.buf[:0]
	anyRows, anyGov := false, false
	for i := range st.slots {
		anyRows = anyRows || len(st.slots[i].rows) > 0
		anyGov = anyGov || st.slots[i].gov != nil
	}
	if anyRows {
		for _, fam := range probeFamilies {
			b = appendHeader(b, fam.name, fam.help, "counter")
			for i := range st.slots {
				for j := range st.slots[i].rows {
					r := &st.slots[i].rows[j]
					b = appendSample(b, fam.name, r.labels, fam.get(r))
				}
			}
		}
	}
	if len(st.slots) > 0 {
		for _, fam := range sessionFamilies {
			b = appendHeader(b, fam.name, fam.help, fam.typ)
			for i := range st.slots {
				b = appendSample(b, fam.name, st.slots[i].base, fam.get(&st.slots[i]))
			}
		}
	}

	// Rollups, from the same snapshots the labelled series rendered
	// from. Emitted even for an empty fleet (zero-valued), so a scraper
	// always sees the fleet families.
	var fleetFires, fleetSkips, fleetCycles uint64
	var fleetProbes int
	for i := range st.slots {
		snap := st.slots[i].snap
		fleetFires += snap.TotalFires
		fleetSkips += snap.TotalSkips
		fleetCycles += snap.ProbeCycles
		fleetProbes += len(snap.Probes)
	}
	for _, g := range []struct {
		name, help, typ string
		value           uint64
	}{
		{"cinnamon_fleet_fires_total", "All probe firings across the fleet (sum of cinnamon_session_fires_total).", "counter", fleetFires},
		{"cinnamon_fleet_skips_total", "All sampling-gate skips across the fleet (sum of cinnamon_session_skips_total).", "counter", fleetSkips},
		{"cinnamon_fleet_cycles_total", "All instrumentation cycle units across the fleet (sum of cinnamon_session_cycles_total).", "counter", fleetCycles},
		{"cinnamon_fleet_probes", "Registered probes across the fleet.", "gauge", uint64(fleetProbes)},
	} {
		b = appendHeader(b, g.name, g.help, g.typ)
		b = appendSample(b, g.name, "", g.value)
	}

	var counts [5]uint64
	for i := range st.slots {
		switch st.slots[i].state {
		case SessionQueued:
			counts[0]++
		case SessionRunning:
			counts[1]++
		case SessionDone:
			counts[2]++
		case SessionFailed:
			counts[3]++
		case SessionCanceled:
			counts[4]++
		}
	}
	b = appendHeader(b, "cinnamon_fleet_sessions", "Sessions by lifecycle state.", "gauge")
	for i, state := range SessionStates() {
		b = append(b, `cinnamon_fleet_sessions{state="`...)
		b = append(b, string(state)...)
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, counts[i], 10)
		b = append(b, '\n')
	}

	// Governor families, for governed sessions (the full decision log
	// is served by /sessions/{id}/governor).
	if anyGov {
		for _, fam := range governorFamilies {
			b = appendHeader(b, fam.name, fam.help, fam.typ)
			for i := range st.slots {
				ss := &st.slots[i]
				switch {
				case ss.gov == nil:
				case fam.getF != nil:
					b = appendSampleFloat(b, fam.name, ss.base, fam.getF(ss))
				default:
					b = appendSample(b, fam.name, ss.base, fam.getU(ss))
				}
			}
		}
	}

	st.buf = b
	_, _ = w.Write(b)
}

// ArtifactKindStats is one artifact kind's cache counters in the fleet
// /metrics artifact families.
type ArtifactKindStats struct {
	// Kind names the artifact kind ("tool", "victim", "template").
	Kind string
	// Hits and Misses count cache consultations, Entries live entries.
	Hits, Misses uint64
	Entries      int
}

// ArtifactStats is the scheduler-supplied artifact-cache view for fleet
// exposition (monitor stays decoupled from the cache implementation).
type ArtifactStats struct {
	Kinds     []ArtifactKindStats
	Evictions uint64
}

// writeArtifactMetrics appends the cinnamon_artifact_* families.
func writeArtifactMetrics(w io.Writer, st ArtifactStats) {
	var b []byte
	b = appendHeader(b, "cinnamon_artifact_hits_total", "Artifact-cache hits, by artifact kind.", "counter")
	for _, k := range st.Kinds {
		b = appendSample(b, "cinnamon_artifact_hits_total", `kind="`+escapeLabel(k.Kind)+`"`, k.Hits)
	}
	b = appendHeader(b, "cinnamon_artifact_misses_total", "Artifact-cache misses, by artifact kind.", "counter")
	for _, k := range st.Kinds {
		b = appendSample(b, "cinnamon_artifact_misses_total", `kind="`+escapeLabel(k.Kind)+`"`, k.Misses)
	}
	b = appendHeader(b, "cinnamon_artifact_entries", "Live artifact-cache entries, by artifact kind.", "gauge")
	for _, k := range st.Kinds {
		b = appendSample(b, "cinnamon_artifact_entries", `kind="`+escapeLabel(k.Kind)+`"`, uint64(k.Entries))
	}
	b = appendHeader(b, "cinnamon_artifact_evictions_total", "Artifact-cache entries evicted by capacity bounds.", "counter")
	b = appendSample(b, "cinnamon_artifact_evictions_total", "", st.Evictions)
	_, _ = w.Write(b)
}

// ParseSamples parses a text-exposition document into a series→value
// map, keyed by the full sample line head ("name{labels}"). Comment and
// blank lines are skipped. The load harness (internal/bench) and the
// fleet smoke script use it to assert rollup consistency against a live
// /metrics scrape.
func ParseSamples(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside braces; label values
		// may themselves contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
