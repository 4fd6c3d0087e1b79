// Package fleet is cinnamond's session scheduler: it admits victim×tool
// jobs (from the /sessions API or a boot manifest), runs each as one
// instrumented session on a bounded worker pool, and registers every
// session with a monitor.Fleet so the aggregation endpoints can serve
// the live fleet view.
//
// Isolation comes from sharding, not locking: every session gets its own
// obs.Collector (whose generation-tagged ProbeIDs make a stray firing
// from any other collector land in the untracked bucket, never in a
// foreign slot), its own interval Series, and — when the job asks for a
// budget — its own overhead governor. The scheduler only touches
// lifecycle state; the hot firing paths never cross sessions.
//
// Failed attempts restart up to the job's restart bound. Drain stops
// admission, cancels still-queued sessions, lets running ones finish
// until the deadline, and then cancels the stragglers through the VM's
// cooperative stop flag (vm.Config.Stop), which takes effect at the
// next block dispatch.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
)

// JobSpec is one submitted job: which tool to run on which victim under
// which backend. It is the JSON body of POST /sessions and the element
// type of a boot manifest.
type JobSpec struct {
	// Tool names a built-in case-study program (progs.Names). Exactly
	// one of Tool and ToolSrc must be set.
	Tool string `json:"tool,omitempty"`
	// ToolSrc is inline Cinnamon source, for jobs not covered by a
	// built-in program. The session's tool label becomes "inline".
	ToolSrc string `json:"tool_src,omitempty"`
	// Victim names a loopable monitoring victim (workload.LoopableVictims).
	Victim string `json:"victim"`
	// Backend is the instrumentation framework (default "janus").
	Backend string `json:"backend,omitempty"`
	// Loop is the victim loop count — how many times the victim's
	// behaviour re-runs before the session completes (default: the
	// scheduler's DefaultLoop).
	Loop int `json:"loop,omitempty"`
	// Budget, when set ("5%" or "0.05"), attaches an overhead governor
	// with that probe-overhead budget to the session.
	Budget string `json:"budget,omitempty"`
	// Restarts bounds restart-on-failure: a session whose run errors is
	// re-queued up to this many times (at most MaxRestarts) before it
	// settles failed.
	Restarts int `json:"restarts,omitempty"`
	// Fuel bounds the session's instruction count (0 = the VM default).
	Fuel uint64 `json:"fuel,omitempty"`
}

// MaxRestarts caps JobSpec.Restarts at admission. Every attempt
// registers the tool's probes again on the session's collector, so the
// bound also bounds the session's probe table and the cost of each
// snapshot of it.
const MaxRestarts = 10

// Manifest is the boot-manifest document: the jobs cinnamond submits
// before it starts serving.
type Manifest struct {
	Sessions []JobSpec `json:"sessions"`
}

// ParseManifest parses a manifest: either a bare JSON array of job
// specs or a {"sessions":[...]} document.
func ParseManifest(data []byte) ([]JobSpec, error) {
	var specs []JobSpec
	if err := json.Unmarshal(data, &specs); err == nil {
		return specs, nil
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("fleet: bad manifest: %v", err)
	}
	return m.Sessions, nil
}

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the bounded worker pool size (default 4): how many
	// sessions run concurrently.
	Workers int
	// Queue bounds admitted-but-not-running sessions (default 256);
	// submissions beyond it are rejected.
	Queue int
	// Interval is each session's time-series sampling period (default 1s).
	Interval time.Duration
	// SeriesCap bounds each session's retained series window (default 600).
	SeriesCap int
	// DefaultLoop is the victim loop count for jobs that do not set one
	// (default 50000).
	DefaultLoop int
	// TraceCap is each session's trace-ring capacity (default: the
	// collector default).
	TraceCap int
	// Artifacts overrides the scheduler's shared artifact cache (a
	// private one is created by default). Sessions share compiled tools,
	// built victims and instrumentation-build templates through it; see
	// internal/core/artifacts.
	Artifacts *artifacts.Cache
	// NoArtifactCache disables cross-session artifact sharing: every
	// session builds from scratch. Restart attempts of one session still
	// reuse that session's own build through a private per-task cache.
	NoArtifactCache bool
}

// ErrDraining rejects submissions once Drain has begun.
var ErrDraining = errors.New("fleet: draining, not accepting sessions")

// task is one admitted job: the session plus everything pre-built at
// admission (compiled tool, victim program) and its cancellation flag.
type task struct {
	spec JobSpec
	sess *monitor.FleetSession
	tool *engine.CompiledTool
	prog *cfg.Program
	// cache is the artifact cache the task's attempts run through: the
	// scheduler's shared cache, or a private per-task cache when sharing
	// is disabled (so restart attempts still reuse the first attempt's
	// instrumentation build instead of re-walking the CFE hierarchy).
	cache *artifacts.Cache
	// stop is the session's cooperative cancel flag, shared with the VM.
	stop atomic.Bool
	// restarts counts failed attempts already re-queued.
	restarts int
}

// Scheduler admits jobs and runs them over the worker pool.
type Scheduler struct {
	cfg   Config
	fleet *monitor.Fleet
	// artifacts is the cross-session cache (nil when disabled).
	artifacts *artifacts.Cache

	mu        sync.Mutex
	accepting bool
	nextID    int
	tasks     []*task
	queue     chan *task

	wg sync.WaitGroup
}

// NewScheduler creates a scheduler and starts its workers. Submissions
// are accepted immediately; Drain stops them.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.DefaultLoop <= 0 {
		cfg.DefaultLoop = 50000
	}
	s := &Scheduler{
		cfg:       cfg,
		fleet:     monitor.NewFleet(),
		artifacts: cfg.Artifacts,
		accepting: true,
		queue:     make(chan *task, cfg.Queue),
	}
	if s.artifacts == nil && !cfg.NoArtifactCache {
		s.artifacts = artifacts.New(artifacts.Options{})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Fleet returns the session registry the scheduler populates (the
// FleetServer serves it).
func (s *Scheduler) Fleet() *monitor.Fleet { return s.fleet }

// Artifacts returns the scheduler's cross-session artifact cache (nil
// when sharing is disabled).
func (s *Scheduler) Artifacts() *artifacts.Cache { return s.artifacts }

// ArtifactStats adapts the cache counters to the monitor's exposition
// view — the FleetServer's Artifacts hook. Zero-valued when sharing is
// disabled (per-task caches are not aggregated).
func (s *Scheduler) ArtifactStats() monitor.ArtifactStats {
	if s.artifacts == nil {
		return monitor.ArtifactStats{}
	}
	st := s.artifacts.Stats()
	return monitor.ArtifactStats{
		Kinds: []monitor.ArtifactKindStats{
			{Kind: "tool", Hits: st.ToolHits, Misses: st.ToolMisses, Entries: st.Tools},
			{Kind: "victim", Hits: st.VictimHits, Misses: st.VictimMisses, Entries: st.Victims},
			{Kind: "template", Hits: st.TemplateHits, Misses: st.TemplateMisses, Entries: st.Templates},
		},
		Evictions: st.Evictions,
	}
}

// Accepting reports whether Submit admits new jobs — the readiness
// probe (false once Drain has begun).
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepting
}

// Submit validates, compiles and admits one job, returning its session.
// The tool compile and victim build happen here, synchronously, so a
// bad job is rejected with a useful error instead of failing later on a
// worker.
func (s *Scheduler) Submit(spec JobSpec) (*monitor.FleetSession, error) {
	if spec.Backend == "" {
		spec.Backend = backend.Janus
	}
	switch spec.Backend {
	case backend.Pin, backend.Dyninst, backend.Janus:
	default:
		return nil, fmt.Errorf("fleet: unknown backend %q", spec.Backend)
	}
	if spec.Loop <= 0 {
		spec.Loop = s.cfg.DefaultLoop
	}
	if spec.Restarts < 0 {
		return nil, fmt.Errorf("fleet: negative restart bound")
	}
	if spec.Restarts > MaxRestarts {
		return nil, fmt.Errorf("fleet: restart bound %d above the maximum of %d", spec.Restarts, MaxRestarts)
	}

	toolLabel := spec.Tool
	var src string
	switch {
	case spec.Tool != "" && spec.ToolSrc != "":
		return nil, fmt.Errorf("fleet: set tool or tool_src, not both")
	case spec.Tool != "":
		var err error
		if src, err = progs.Source(spec.Tool); err != nil {
			return nil, fmt.Errorf("fleet: %v", err)
		}
	case spec.ToolSrc != "":
		src = spec.ToolSrc
		toolLabel = "inline"
	default:
		return nil, fmt.Errorf("fleet: job names no tool")
	}
	// The session's collector exists before any build so cache
	// consultations land in its build stats (the per-session cold/warm
	// provenance on /sessions). The session is not running yet, so
	// mutating build stats here is race-free.
	col := obs.New(obs.Options{TraceCap: s.cfg.TraceCap})
	cache := s.artifacts
	if cache == nil {
		// Sharing disabled: a private per-task cache still lets restart
		// attempts reuse this session's own build.
		cache = artifacts.New(artifacts.Options{})
	}

	tool, lk, err := cache.Tool(src)
	if err != nil {
		return nil, fmt.Errorf("fleet: compile tool: %v", err)
	}
	lk.Record(col)
	victim, lk, err := cache.Victim(spec.Victim, spec.Loop)
	if err != nil {
		return nil, err
	}
	lk.Record(col)
	prog := victim.Prog

	if spec.Budget != "" {
		if _, err := governor.ParseBudget(spec.Budget); err != nil {
			return nil, fmt.Errorf("fleet: %v", err)
		}
	}

	series := obs.NewSeries(col, spec.Backend, obs.SeriesOptions{
		Interval: s.cfg.Interval,
		Cap:      s.cfg.SeriesCap,
	})

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	labels := monitor.SessionLabels{Session: id, Tool: toolLabel, Victim: spec.Victim, Backend: spec.Backend}
	sess, err := s.fleet.Add(labels, col, series)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	t := &task{spec: spec, sess: sess, tool: tool, prog: prog, cache: cache}
	select {
	case s.queue <- t:
	default:
		s.mu.Unlock()
		sess.Finish(monitor.SessionFailed, 0, 0, "queue full")
		return sess, fmt.Errorf("fleet: queue full (%d queued)", s.cfg.Queue)
	}
	s.tasks = append(s.tasks, t)
	s.mu.Unlock()
	return sess, nil
}

// SubmitJSON adapts Submit to the FleetServer's POST /sessions hook:
// the body is one JobSpec; the response names the admitted session.
func (s *Scheduler) SubmitJSON(body []byte) (any, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("fleet: bad job: %v", err)
	}
	sess, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"session": sess.Labels().Session,
		"state":   string(sess.State()),
	}, nil
}

// worker claims queued tasks and runs them to a terminal state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		if t.stop.Load() {
			s.settle(t, monitor.SessionCanceled, nil, "canceled before start")
			continue
		}
		t.sess.Start()
		res, err := s.runOnce(t)
		switch {
		case err == nil:
			s.settle(t, monitor.SessionDone, res, "")
		case errors.Is(err, vm.ErrStopped):
			s.settle(t, monitor.SessionCanceled, nil, err.Error())
		default:
			if t.restarts < t.spec.Restarts && s.requeue(t, err) {
				continue
			}
			s.settle(t, monitor.SessionFailed, nil, err.Error())
		}
	}
}

// settle moves a task to a terminal state (Finish also stops its
// series, after a final point, so the series covers the whole run).
func (s *Scheduler) settle(t *task, state monitor.SessionState, res *vm.Result, msg string) {
	var cycles, insts uint64
	if res != nil {
		cycles, insts = res.Cycles, res.Insts
	}
	t.sess.Finish(state, cycles, insts, msg)
}

// requeue returns a failed attempt to the queue (restart-on-failure).
// It fails when the scheduler is draining or the queue is full; the
// caller then settles the task failed.
func (s *Scheduler) requeue(t *task, cause error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return false
	}
	select {
	case s.queue <- t:
		t.restarts++
		t.sess.Requeue(cause.Error())
		return true
	default:
		return false
	}
}

// runOnce performs one attempt of the task's session.
func (s *Scheduler) runOnce(t *task) (*vm.Result, error) {
	opts := backend.Options{
		Out:       io.Discard,
		AppOut:    io.Discard,
		Obs:       t.sess.Collector(),
		Fuel:      t.spec.Fuel,
		Stop:      &t.stop,
		Artifacts: t.cache,
	}
	if t.spec.Budget != "" {
		frac, err := governor.ParseBudget(t.spec.Budget)
		if err != nil {
			return nil, err
		}
		gov, err := governor.New(governor.Config{Budget: frac, Collector: t.sess.Collector()})
		if err != nil {
			return nil, err
		}
		opts.Adaptive = true
		opts.OnMachine = gov.Attach
		t.sess.SetGovernor(gov)
	}
	return backend.Run(t.tool, t.prog, t.spec.Backend, opts)
}

// Drain shuts the scheduler down gracefully: admission stops, queued
// sessions are canceled, running sessions finish naturally until ctx's
// deadline and are cooperatively canceled past it. Drain returns when
// every worker has exited; the returned error is ctx's when the
// deadline forced cancellation.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return errors.New("fleet: already draining")
	}
	s.accepting = false
	// Queued-but-unstarted tasks cancel immediately: workers see the
	// flag before starting them. Running tasks keep going for now.
	for _, t := range s.tasks {
		if t.sess.State() == monitor.SessionQueued {
			t.stop.Store(true)
		}
	}
	// Safe: Submit checks accepting under mu before sending.
	close(s.queue)
	tasks := make([]*task, len(s.tasks))
	copy(tasks, s.tasks)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline: cancel the stragglers. The VM honours the flag at
		// its next block dispatch, so this wait is prompt.
		for _, t := range tasks {
			t.stop.Store(true)
		}
		<-done
		return ctx.Err()
	}
}

// Wait blocks until every admitted session has reached a terminal
// state, polling the registry (tests and the load harness use it; the
// daemon itself drains instead).
func (s *Scheduler) Wait(ctx context.Context) error {
	for {
		settled := true
		for _, sess := range s.fleet.Sessions() {
			switch sess.State() {
			case monitor.SessionDone, monitor.SessionFailed, monitor.SessionCanceled:
			default:
				settled = false
			}
		}
		if settled {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
