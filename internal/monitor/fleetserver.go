package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
)

// maxBodyBytes bounds every request body the server reads.
const maxBodyBytes = 1 << 20

// FleetConfig parameterizes a FleetServer.
type FleetConfig struct {
	// Fleet is the session registry being served. Required.
	Fleet *Fleet
	// Ready reports whether the session scheduler is accepting work;
	// /healthz/ready turns 503 when it returns false (the drain window).
	// nil means always ready.
	Ready func() bool
	// Submit handles a POST /sessions job body and returns the
	// JSON-encodable response (the scheduler injects itself here so
	// monitor never imports internal/fleet). nil disables submission:
	// POST answers 405.
	Submit func(body []byte) (any, error)
	// Heartbeat is the SSE keep-alive period (default 1s). The /trace
	// multiplexer also discovers newly registered sessions on this tick.
	Heartbeat time.Duration
	// TraceBuf is the per-tap and merged-stream channel depth (default
	// 256). Events beyond a slow consumer are dropped and accounted.
	TraceBuf int
	// Artifacts, when non-nil, supplies the scheduler's artifact-cache
	// counters; /metrics then appends the cinnamon_artifact_* families
	// after the fleet document. nil omits them.
	Artifacts func() ArtifactStats
}

// FleetServer serves a Fleet over HTTP: the endpoints listed in the
// package documentation.
type FleetServer struct {
	cfg  FleetConfig
	srv  *http.Server
	ln   net.Listener
	quit chan struct{}
}

// NewFleetServer creates the aggregation server over the registry.
func NewFleetServer(cfg FleetConfig) *FleetServer {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.TraceBuf <= 0 {
		cfg.TraceBuf = 256
	}
	return &FleetServer{cfg: cfg, quit: make(chan struct{})}
}

// Handler returns the fleet endpoint mux.
func (s *FleetServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("GET /sessions/{id}/stats", s.handleSessionStats)
	mux.HandleFunc("/sessions/{id}/governor", s.handleSessionGovernor)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleLive)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	return mux
}

// Start binds addr (host:port; port 0 picks a free one) and serves in a
// background goroutine, returning the bound address. Shutdown must be
// called to stop.
func (s *FleetServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the server: streaming handlers are released and
// in-flight requests drain, bounded by ctx. Only valid after Start.
func (s *FleetServer) Shutdown(ctx context.Context) error {
	close(s.quit)
	return s.srv.Shutdown(ctx)
}

func (s *FleetServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteFleetMetrics(w, s.cfg.Fleet)
	if s.cfg.Artifacts != nil {
		writeArtifactMetrics(w, s.cfg.Artifacts())
	}
}

// SessionSeries is one session's interval series in the fleet /series
// document.
type SessionSeries struct {
	SessionLabels
	State  SessionState    `json:"state"`
	Series *obs.SeriesDump `json:"series"`
}

// FleetSeriesDump is the fleet /series document: every session's dump
// plus the merged most-recent rates.
type FleetSeriesDump struct {
	Sessions []SessionSeries `json:"sessions"`
	// Last sums the most recent point of every session's series: the
	// fleet's current aggregate rates.
	Last obs.Rate `json:"last"`
}

func (s *FleetServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	dump := FleetSeriesDump{Sessions: []SessionSeries{}}
	for _, sess := range s.cfg.Fleet.Sessions() {
		ser := sess.Series()
		if ser == nil {
			continue
		}
		dump.Sessions = append(dump.Sessions, SessionSeries{
			SessionLabels: sess.Labels(),
			State:         sess.State(),
			Series:        ser.Dump(),
		})
		if p, ok := ser.Last(); ok {
			dump.Last.Fires += p.Total.Fires
			dump.Last.Cycles += p.Total.Cycles
			dump.Last.FiresPerSec += p.Total.FiresPerSec
			dump.Last.CyclesPerSec += p.Total.CyclesPerSec
		}
	}
	writeJSON(w, http.StatusOK, dump)
}

// writeJSON answers with an indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSessions serves the lifecycle view (GET; ?session=ID narrows to
// one) and job submission (POST, delegated to the scheduler).
func (s *FleetServer) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if id := r.URL.Query().Get("session"); id != "" {
			if sess, ok := s.session(w, id); ok {
				writeJSON(w, http.StatusOK, sess.Info())
			}
			return
		}
		infos := []SessionInfo{}
		for _, sess := range s.cfg.Fleet.Sessions() {
			infos = append(infos, sess.Info())
		}
		writeJSON(w, http.StatusOK, infos)
	case http.MethodPost:
		if s.cfg.Submit == nil {
			http.Error(w, "session submission disabled", http.StatusMethodNotAllowed)
			return
		}
		if s.cfg.Ready != nil && !s.cfg.Ready() {
			http.Error(w, "draining: not accepting sessions", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad body: %v", err), http.StatusBadRequest)
			return
		}
		resp, err := s.cfg.Submit(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusAccepted, resp)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// session looks a session up by ID, answering 404 when no such session
// is registered.
func (s *FleetServer) session(w http.ResponseWriter, id string) (*FleetSession, bool) {
	sess, ok := s.cfg.Fleet.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no session %q", id), http.StatusNotFound)
	}
	return sess, ok
}

// handleSessionStats serves one session's full obs.Stats snapshot, with
// its governor's state embedded when it has one.
func (s *FleetServer) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r.PathValue("id"))
	if !ok {
		return
	}
	snap := sess.Collector().Snapshot(sess.Labels().Backend)
	if g := sess.Governor(); g != nil {
		snap.Governor = g.State()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = snap.WriteJSON(w)
}

// handleSessionGovernor serves one session's overhead governor. GET
// returns its state (budget, window overheads, per-probe strides and
// the replayable decision log). POST mailboxes a control command; the
// governor applies it at its next pace point, on the run goroutine,
// where adaptive-probe control is legal. Only a running session takes
// commands: a settled governor never paces again, so its mailbox would
// only grow.
func (s *FleetServer) handleSessionGovernor(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r.PathValue("id"))
	if !ok {
		return
	}
	g := sess.Governor()
	if g == nil {
		http.Error(w, fmt.Sprintf("session %s has no governor (run it with a budget)", sess.Labels().Session), http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, g.State())
	case http.MethodPost:
		var cmd governor.Command
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cmd); err != nil {
			http.Error(w, fmt.Sprintf("bad command: %v", err), http.StatusBadRequest)
			return
		}
		switch cmd.Action {
		case "rearm", "eject", "stride":
		default:
			http.Error(w, fmt.Sprintf("bad action %q (want rearm, eject or stride)", cmd.Action), http.StatusBadRequest)
			return
		}
		if st := sess.State(); st != SessionRunning {
			http.Error(w, fmt.Sprintf("session %s is %s, not running", sess.Labels().Session, st), http.StatusConflict)
			return
		}
		g.Enqueue(cmd)
		writeJSON(w, http.StatusOK, map[string]string{"status": "queued"})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *FleetServer) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *FleetServer) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ready := true
	select {
	case <-s.quit:
		ready = false
	default:
		if s.cfg.Ready != nil {
			ready = s.cfg.Ready()
		}
	}
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// FleetTraceEvent is one multiplexed /trace event: the firing plus the
// session it came from.
type FleetTraceEvent struct {
	Session string `json:"session"`
	obs.TraceEvent
}

// fleetHeartbeat rides on the multiplexed stream's keep-alives: how
// many sessions are tapped and how many events this subscriber has
// missed — collector-side tap overflow plus merge-channel overflow,
// monotone for the life of the stream.
type fleetHeartbeat struct {
	Sessions int    `json:"sessions"`
	Dropped  uint64 `json:"dropped"`
}

// handleTrace multiplexes every session's firing stream into one SSE
// stream. Each session gets a bounded tap (obs.Subscribe) pumped into a
// shared merge channel; events carry the session label. Sessions
// registered after the stream opened are tapped at the next heartbeat
// tick. A slow client loses events — tap- and merge-side drops are
// counted and reported on every heartbeat — but never stalls a run.
func (s *FleetServer) handleTrace(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	type tap struct {
		col *obs.Collector
		sub *obs.Subscription
		ch  chan obs.TraceEvent
	}
	merged := make(chan FleetTraceEvent, s.cfg.TraceBuf)
	var mergeDrops atomic.Uint64
	stop := make(chan struct{})
	taps := map[string]*tap{} // touched only by this handler goroutine

	attach := func() {
		for _, sess := range s.cfg.Fleet.Sessions() {
			id := sess.Labels().Session
			if _, seen := taps[id]; seen {
				continue
			}
			t := &tap{col: sess.Collector(), ch: make(chan obs.TraceEvent, s.cfg.TraceBuf)}
			t.sub = t.col.Subscribe(t.ch)
			taps[id] = t
			go func(id string, t *tap) {
				for {
					select {
					case <-stop:
						return
					case ev := <-t.ch:
						select {
						case merged <- FleetTraceEvent{Session: id, TraceEvent: ev}:
						default:
							mergeDrops.Add(1)
						}
					}
				}
			}(id, t)
		}
	}
	defer func() {
		close(stop)
		for _, t := range taps {
			t.col.Unsubscribe(t.sub)
		}
	}()
	attach()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	tick := time.NewTicker(s.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-r.Context().Done():
			return
		case ev := <-merged:
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: fire\ndata: %s\n\n", data)
			flusher.Flush()
		case <-tick.C:
			attach()
			dropped := mergeDrops.Load()
			for _, t := range taps {
				dropped += t.sub.Dropped()
			}
			data, _ := json.Marshal(fleetHeartbeat{Sessions: len(taps), Dropped: dropped})
			fmt.Fprintf(w, "event: heartbeat\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}
