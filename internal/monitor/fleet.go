// Package monitor serves live observability for instrumented sessions
// over HTTP, backed by the concurrent-safe read path of internal/obs so
// a run never blocks on an observer. One server, FleetServer, serves
// both the cinnamond daemon's sessions and a single `cinnamon -listen`
// run, which registers itself as the one session "s1" of a Fleet:
//
//	GET  /metrics                 session-labelled exposition + exact rollups
//	GET  /series                  every session's interval series + last rates
//	GET  /sessions                lifecycle of every session (?session=ID)
//	POST /sessions                submit a job (405 without a scheduler)
//	GET  /sessions/{id}/stats     the session's obs.Stats, governor embedded
//	GET  /sessions/{id}/governor  the session's overhead-governor state
//	POST /sessions/{id}/governor  a control command, applied at the next pace
//	GET  /trace                   session-tagged SSE of firing events; slow
//	                              clients lose events, never stall a run
//	GET  /healthz[/live]          liveness
//	GET  /healthz/ready           readiness: 503 while draining
//
// The Fleet registry (this file) is the read path the endpoints
// snapshot. Every session owns its sharded obs.Collector — its
// generation-tagged ProbeIDs send cross-collector firings to the
// untracked bucket, never another session's slots — plus an interval
// Series and, optionally, an overhead governor. The registry's writers
// (the scheduler in internal/fleet, or cinnamon.Run) advance each
// session through the queued → running → done/failed/canceled
// lifecycle. fleetmetrics.go renders the exposition, fleetserver.go
// serves HTTP.
package monitor

import (
	"fmt"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/governor"
	"repro/internal/obs"
)

// SessionLabels identify one session in fleet exposition: every metric
// of the session carries all four as Prometheus labels.
type SessionLabels struct {
	// Session is the fleet-unique session ID (the scheduler assigns
	// "s1", "s2", ...).
	Session string `json:"session"`
	// Tool and Victim name what the session runs.
	Tool   string `json:"tool"`
	Victim string `json:"victim"`
	// Backend names the instrumentation framework.
	Backend string `json:"backend"`
}

// maxLabelLen bounds a label value; longer values would bloat every
// exposed series of the session.
const maxLabelLen = 128

// ValidateLabelValue checks a session label value at admission time:
// non-empty, bounded, valid UTF-8, no control characters. Escaping
// (escapeLabel) makes any accepted value safe in the exposition format;
// validation keeps junk out of the label space in the first place.
func ValidateLabelValue(name, v string) error {
	if v == "" {
		return fmt.Errorf("monitor: empty %s label", name)
	}
	if len(v) > maxLabelLen {
		return fmt.Errorf("monitor: %s label exceeds %d bytes", name, maxLabelLen)
	}
	if !utf8.ValidString(v) {
		return fmt.Errorf("monitor: %s label is not valid UTF-8", name)
	}
	for _, r := range v {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("monitor: %s label contains control character %q", name, r)
		}
	}
	return nil
}

// Validate checks every label of the set.
func (l SessionLabels) Validate() error {
	for _, f := range []struct{ name, v string }{
		{"session", l.Session}, {"tool", l.Tool}, {"victim", l.Victim}, {"backend", l.Backend},
	} {
		if err := ValidateLabelValue(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// SessionState is a session's lifecycle state.
type SessionState string

// The lifecycle: sessions are admitted queued, claimed running by a
// worker, and finish done, failed (attempts exhausted) or canceled
// (drain deadline).
const (
	SessionQueued   SessionState = "queued"
	SessionRunning  SessionState = "running"
	SessionDone     SessionState = "done"
	SessionFailed   SessionState = "failed"
	SessionCanceled SessionState = "canceled"
)

// SessionStates lists the lifecycle states in order (fleet exposition
// emits one gauge per state, activity or not, so dashboards see zeros).
func SessionStates() []SessionState {
	return []SessionState{SessionQueued, SessionRunning, SessionDone, SessionFailed, SessionCanceled}
}

// FleetSession is one registered session: labels, its sharded collector
// and series, and mutable lifecycle state. Collector and Series are
// fixed at registration; lifecycle fields are guarded by mu so the
// exposition path never reads a torn state.
type FleetSession struct {
	labels SessionLabels
	// base is the session's rendered exposition label set, fixed at
	// registration (labels are immutable) so the scrape hot path never
	// re-escapes or re-formats it.
	base   string
	col    *obs.Collector
	series *obs.Series
	// stopSeries makes the first Finish the only one that stops the
	// series.
	stopSeries sync.Once

	mu       sync.Mutex
	state    SessionState
	attempts int
	errMsg   string
	cycles   uint64
	insts    uint64
	gov      *governor.Governor
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// Labels returns the session's identifying labels.
func (s *FleetSession) Labels() SessionLabels { return s.labels }

// Collector returns the session's sharded collector.
func (s *FleetSession) Collector() *obs.Collector { return s.col }

// Series returns the session's interval aggregator.
func (s *FleetSession) Series() *obs.Series { return s.series }

// State returns the current lifecycle state.
func (s *FleetSession) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Attempts returns how many scheduler attempts the session has made.
// Unlike Info it takes no collector snapshot, so the scrape hot path
// can read it per scrape without doubling snapshot work.
func (s *FleetSession) Attempts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}

// SetGovernor attaches the session's current overhead governor (a
// restarted attempt gets a fresh one; the latest is exposed).
func (s *FleetSession) SetGovernor(g *governor.Governor) {
	s.mu.Lock()
	s.gov = g
	s.mu.Unlock()
}

// Governor returns the session's current governor (nil when ungoverned).
func (s *FleetSession) Governor() *governor.Governor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gov
}

// Start marks the session running and counts the attempt.
func (s *FleetSession) Start() {
	s.mu.Lock()
	s.state = SessionRunning
	s.attempts++
	if s.started.IsZero() {
		s.started = time.Now()
	}
	s.mu.Unlock()
}

// Requeue returns a failed attempt to the queue (restart-on-failure):
// the state goes back to queued and the error is retained until a later
// attempt settles it.
func (s *FleetSession) Requeue(errMsg string) {
	s.mu.Lock()
	s.state = SessionQueued
	s.errMsg = errMsg
	s.mu.Unlock()
}

// Finish settles the session in a terminal state with the machine
// result of its last attempt. The session's series takes its final
// sample and stops first, so a reader that sees the terminal state also
// sees the tail of the run in the series.
func (s *FleetSession) Finish(state SessionState, cycles, insts uint64, errMsg string) {
	s.stopSeries.Do(func() {
		if s.series != nil {
			s.series.Stop()
		}
	})
	s.mu.Lock()
	s.state = state
	s.cycles = cycles
	s.insts = insts
	s.errMsg = errMsg
	s.finished = time.Now()
	s.mu.Unlock()
}

// SessionInfo is the exported lifecycle view of one session, served by
// the fleet /sessions endpoint.
type SessionInfo struct {
	SessionLabels
	State    SessionState `json:"state"`
	Attempts int          `json:"attempts"`
	Error    string       `json:"error,omitempty"`
	// BuildSource reports where the session's instrumentation build came
	// from when the scheduler ran it through an artifact cache: "cold"
	// (at least one cache miss — the session built and published
	// artifacts) or "warm" (every consulted artifact was served from the
	// cache). Empty when the session never consulted a cache.
	BuildSource string `json:"build_source,omitempty"`
	// Probes, Fires, Skips and ProbeCycles are a live snapshot of the
	// session's collector.
	Probes      int    `json:"probes"`
	Fires       uint64 `json:"fires"`
	Skips       uint64 `json:"skips,omitempty"`
	ProbeCycles uint64 `json:"probe_cycles"`
	// Cycles and Insts are the machine result of the last finished
	// attempt (0 while the session runs).
	Cycles uint64 `json:"cycles,omitempty"`
	Insts  uint64 `json:"insts,omitempty"`
	// Lifecycle timestamps (RFC 3339; the zero time until the session
	// reaches that point of its life).
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

// Info exports the session's lifecycle state plus a live counter
// snapshot.
func (s *FleetSession) Info() SessionInfo {
	snap := s.col.Snapshot(s.labels.Backend)
	src := ""
	switch {
	case snap.Build.ArtifactMisses > 0:
		src = "cold"
	case snap.Build.ArtifactHits > 0:
		src = "warm"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		SessionLabels: s.labels,
		State:         s.state,
		Attempts:      s.attempts,
		Error:         s.errMsg,
		BuildSource:   src,
		Probes:        len(snap.Probes),
		Fires:         snap.TotalFires,
		Skips:         snap.TotalSkips,
		ProbeCycles:   snap.ProbeCycles,
		Cycles:        s.cycles,
		Insts:         s.insts,
		EnqueuedAt:    s.enqueued,
		StartedAt:     s.started,
		FinishedAt:    s.finished,
	}
}

// Fleet is the session registry the aggregated endpoints serve.
// Sessions are append-only: finished sessions stay registered so their
// counters remain visible (and fleet rollups stay monotone) until the
// daemon exits.
type Fleet struct {
	mu       sync.Mutex
	sessions []*FleetSession
	byID     map[string]*FleetSession
}

// NewFleet creates an empty registry.
func NewFleet() *Fleet {
	return &Fleet{byID: make(map[string]*FleetSession)}
}

// Add registers a session. Labels are validated and the session ID must
// be fleet-unique. The collector is required; series may be nil (the
// session then contributes nothing to /series). The registry owns a
// series' lifecycle: Add starts it and the session's Finish stops it,
// so no caller can stop a series before it has started.
func (f *Fleet) Add(labels SessionLabels, col *obs.Collector, series *obs.Series) (*FleetSession, error) {
	if err := labels.Validate(); err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("monitor: session %s registered without a collector", labels.Session)
	}
	s := &FleetSession{
		labels:   labels,
		base:     sessionBase(labels),
		col:      col,
		series:   series,
		state:    SessionQueued,
		enqueued: time.Now(),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byID[labels.Session]; dup {
		return nil, fmt.Errorf("monitor: duplicate session ID %q", labels.Session)
	}
	if series != nil {
		series.Start()
	}
	f.sessions = append(f.sessions, s)
	f.byID[labels.Session] = s
	return s, nil
}

// Sessions returns the registered sessions in registration order.
func (f *Fleet) Sessions() []*FleetSession {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FleetSession, len(f.sessions))
	copy(out, f.sessions)
	return out
}

// Get returns the session with the given ID.
func (f *Fleet) Get(id string) (*FleetSession, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byID[id]
	return s, ok
}

// StateCounts tallies sessions by lifecycle state.
func (f *Fleet) StateCounts() map[SessionState]int {
	counts := make(map[SessionState]int, 5)
	for _, s := range f.Sessions() {
		counts[s.State()]++
	}
	return counts
}
