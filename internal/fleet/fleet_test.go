package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
)

// waitAll runs the scheduler's sessions to completion with a test bound.
func waitAll(t *testing.T, s *Scheduler, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("sessions did not settle: %v", err)
	}
}

// drain shuts a test scheduler down so its workers never leak.
func drain(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// A batch of sessions runs to done over a pool smaller than the batch,
// every session's counters land in its own collector (no cross-session
// bleed: identical jobs report identical fires, untracked stays zero),
// and probe IDs never collide across the per-session collectors.
func TestSchedulerRunsSessionsIsolated(t *testing.T) {
	s := NewScheduler(Config{Workers: 3, Interval: 5 * time.Millisecond})
	defer drain(t, s)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 50}); err != nil {
			t.Fatal(err)
		}
	}
	waitAll(t, s, 30*time.Second)

	sessions := s.Fleet().Sessions()
	if len(sessions) != n {
		t.Fatalf("registered %d sessions, want %d", len(sessions), n)
	}
	var wantFires uint64
	for i, sess := range sessions {
		info := sess.Info()
		if info.State != monitor.SessionDone {
			t.Fatalf("session %s: state %s (%s), want done", info.Session, info.State, info.Error)
		}
		if info.Fires == 0 || info.Cycles == 0 {
			t.Fatalf("session %s: fires=%d cycles=%d, want activity", info.Session, info.Fires, info.Cycles)
		}
		if info.Attempts != 1 {
			t.Fatalf("session %s: %d attempts, want 1", info.Session, info.Attempts)
		}
		// Identical jobs on isolated collectors must agree exactly; any
		// cross-session bleed would show up as drift or untracked fires.
		snap := sess.Collector().Snapshot(info.Backend)
		if snap.UntrackedFires != 0 {
			t.Fatalf("session %s: %d untracked fires (cross-session bleed?)", info.Session, snap.UntrackedFires)
		}
		if i == 0 {
			wantFires = info.Fires
		} else if info.Fires != wantFires {
			t.Fatalf("session %s: %d fires, session s1 had %d (identical jobs must match)", info.Session, info.Fires, wantFires)
		}
	}
}

// A failing session (out of fuel) restarts up to its bound, then
// settles failed with the attempt count visible — and the restart
// attempts replay the already-built artifacts instead of rebuilding:
// the tool and victim are built once at submit, and every attempt
// after the first serves its instrumentation build from the template
// cache.
func TestSchedulerRestartOnFailure(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Interval: 5 * time.Millisecond})
	defer drain(t, s)
	sess, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 1000, Fuel: 50, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, s, 30*time.Second)
	info := sess.Info()
	if info.State != monitor.SessionFailed {
		t.Fatalf("state %s, want failed", info.State)
	}
	if info.Attempts != 3 {
		t.Fatalf("%d attempts, want 3 (1 + 2 restarts)", info.Attempts)
	}
	if info.Error == "" {
		t.Fatal("failed session reports no error")
	}
	build := sess.Collector().Snapshot(info.Backend).Build
	if build.ArtifactHits < 2 {
		t.Fatalf("restart attempts recorded %d artifact hits, want >= 2 (attempts 2 and 3 must replay the cached template)", build.ArtifactHits)
	}
}

// With the shared scheduler cache disabled, a restarting session still
// reuses its own artifacts across attempts: the per-task private cache
// keeps restart storms from paying the full build on every attempt.
func TestRestartReusesArtifactsWithoutSharedCache(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Interval: 5 * time.Millisecond, NoArtifactCache: true})
	defer drain(t, s)
	if s.Artifacts() != nil {
		t.Fatal("NoArtifactCache scheduler still exposes a shared cache")
	}
	sess, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 1000, Fuel: 50, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, s, 30*time.Second)
	info := sess.Info()
	if info.Attempts != 3 {
		t.Fatalf("%d attempts, want 3", info.Attempts)
	}
	build := sess.Collector().Snapshot(info.Backend).Build
	if build.ArtifactHits < 2 {
		t.Fatalf("restart attempts recorded %d artifact hits, want >= 2 from the per-task cache", build.ArtifactHits)
	}
}

// A governed job carries its overhead budget into the session: the
// governor is attached and visible on the registry.
func TestSchedulerGovernedSession(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Interval: 5 * time.Millisecond})
	defer drain(t, s)
	sess, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 2000, Budget: "5%"})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, s, 30*time.Second)
	if st := sess.State(); st != monitor.SessionDone {
		t.Fatalf("state %s, want done", st)
	}
	g := sess.Governor()
	if g == nil {
		t.Fatal("no governor attached")
	}
	if st := g.State(); st.Budget != 0.05 {
		t.Fatalf("governor budget %v, want 0.05", st.Budget)
	}
}

// Drain stops admission, cancels queued sessions immediately, and
// cancels still-running sessions once the deadline passes — via the
// VM's cooperative stop, so the long loop ends mid-flight.
func TestSchedulerDrainCancels(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Interval: 5 * time.Millisecond})
	// One long runner hogs the only worker; the rest stay queued.
	var all []*monitor.FleetSession
	for i := 0; i < 3; i++ {
		sess, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 100_000_000})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sess)
	}
	// Let the first session actually start.
	start := time.Now()
	for all[0].State() != monitor.SessionRunning {
		if time.Since(start) > 5*time.Second {
			t.Fatal("first session never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline (the running loop outlives 50ms)", err)
	}
	if s.Accepting() {
		t.Fatal("still accepting after drain")
	}
	if _, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	for i, sess := range all {
		if st := sess.State(); st != monitor.SessionCanceled {
			t.Fatalf("session %d: state %s, want canceled", i+1, st)
		}
	}
}

// Sessions admitted concurrently and settled at once must each stop a
// series that has started. The registry owns the series' lifecycle —
// Fleet.Add starts it under the scheduler's admission lock, before the
// session is queued, and FleetSession.Finish stops it — so a worker
// that settles a one-iteration session before its submitter has
// returned from Submit cannot stop a series that never started (a data
// race under -race, and otherwise a close of a nil channel or a hang).
// Contended submitters make that interleaving common: a handoff of the
// admission lock yields the submitter right after it has queued.
func TestShortSessionsRacingSubmit(t *testing.T) {
	const rounds, submitters, each = 4, 32, 8
	for r := 0; r < rounds; r++ {
		s := NewScheduler(Config{Workers: 4, Queue: submitters * each, Interval: 5 * time.Millisecond})
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := s.Submit(JobSpec{Tool: "instcount_basic", Victim: "spin", Loop: 1}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		waitAll(t, s, 60*time.Second)
		drain(t, s)
		for _, sess := range s.Fleet().Sessions() {
			if st := sess.State(); st != monitor.SessionDone {
				t.Fatalf("session %s: state %s, want done", sess.Labels().Session, st)
			}
			// Finish stopped the series after its final sample.
			if len(sess.Series().Points()) == 0 {
				t.Fatalf("session %s settled without its final series point", sess.Labels().Session)
			}
		}
	}
}

// Bad jobs are rejected at admission with a useful error, not on a
// worker.
func TestSubmitValidation(t *testing.T) {
	s := NewScheduler(Config{Workers: 1})
	defer drain(t, s)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no tool", JobSpec{Victim: "spin"}},
		{"both tools", JobSpec{Tool: "instcount_basic", ToolSrc: "x", Victim: "spin"}},
		{"unknown tool", JobSpec{Tool: "nope", Victim: "spin"}},
		{"unknown victim", JobSpec{Tool: "instcount_basic", Victim: "nope"}},
		{"non-loopable victim", JobSpec{Tool: "instcount_basic", Victim: "stack_smash"}},
		{"unknown backend", JobSpec{Tool: "instcount_basic", Victim: "spin", Backend: "qemu"}},
		{"bad budget", JobSpec{Tool: "instcount_basic", Victim: "spin", Budget: "lots"}},
		{"bad tool source", JobSpec{ToolSrc: "this is not cinnamon", Victim: "spin"}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.spec); err == nil {
			t.Errorf("%s: admitted, want rejection", c.name)
		}
	}
	if got := len(s.Fleet().Sessions()); got != 0 {
		t.Fatalf("%d sessions registered by rejected jobs", got)
	}
}

// SubmitJSON rejects unknown fields (catching typo'd job bodies) and
// returns the admitted session ID.
func TestSubmitJSON(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Interval: 5 * time.Millisecond})
	defer drain(t, s)
	resp, err := s.SubmitJSON([]byte(`{"tool":"instcount_basic","victim":"spin","loop":50}`))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := resp.(map[string]string)
	if !ok || m["session"] != "s1" {
		t.Fatalf("response %v", resp)
	}
	if _, err := s.SubmitJSON([]byte(`{"tool":"instcount_basic","victim":"spin","lop":3}`)); err == nil {
		t.Fatal("unknown field admitted")
	}
	waitAll(t, s, 30*time.Second)
}

// Manifests parse in both accepted shapes.
func TestParseManifest(t *testing.T) {
	array := []byte(`[{"tool":"a","victim":"spin"},{"tool":"b","victim":"loopy"}]`)
	doc := []byte(`{"sessions":[{"tool":"a","victim":"spin"}]}`)
	specs, err := ParseManifest(array)
	if err != nil || len(specs) != 2 || specs[1].Tool != "b" {
		t.Fatalf("array manifest: %v %v", specs, err)
	}
	specs, err = ParseManifest(doc)
	if err != nil || len(specs) != 1 {
		t.Fatalf("document manifest: %v %v", specs, err)
	}
	if _, err := ParseManifest([]byte(`"nope"`)); err == nil {
		t.Fatal("junk manifest parsed")
	}
}

// The many-session soak: dozens of concurrent sessions churning while
// the fleet exposition is scraped mid-flight. Every scrape must be
// internally consistent (rollup == sum of per-session totals) and the
// rollup monotone; per-session untracked counters must stay zero (the
// generation-tagged probe IDs keep foreign fires out). The sessions
// share the scheduler's artifact cache, so identical jobs replay one
// cached tool/victim/template concurrently — identical fire counts
// per job shape prove the shared artifacts carry no mutable state
// across sessions. Run with -race this is the cross-session isolation
// gate of the PR.
func TestManySessionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	s := NewScheduler(Config{Workers: 8, Interval: 5 * time.Millisecond})
	defer drain(t, s)
	const n = 32
	tools := []string{"instcount_basic", "opcodemix", "loopcoverage"}
	for i := 0; i < n; i++ {
		spec := JobSpec{Tool: tools[i%len(tools)], Victim: "spin", Loop: 400}
		if i%4 == 3 {
			spec.Budget = "5%"
		}
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}

	// Scrape while sessions churn.
	scrapeCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		var prev float64
		for scrapeCtx.Err() == nil {
			var b strings.Builder
			monitor.WriteFleetMetrics(&b, s.Fleet())
			series := monitor.ParseSamples(b.String())
			var sum float64
			for _, sess := range s.Fleet().Sessions() {
				l := sess.Labels()
				sum += series[fmt.Sprintf(`cinnamon_session_fires_total{session="%s",tool="%s",victim="%s",backend="%s"}`,
					l.Session, l.Tool, l.Victim, l.Backend)]
			}
			got := series["cinnamon_fleet_fires_total"]
			if got != sum {
				scrapeErr <- fmt.Errorf("mid-churn rollup %v != sum %v", got, sum)
				return
			}
			if got < prev {
				scrapeErr <- fmt.Errorf("rollup regressed %v -> %v", prev, got)
				return
			}
			prev = got
		}
	}()

	waitAll(t, s, 120*time.Second)
	cancel()
	if err := <-scrapeErr; err != nil {
		t.Fatal(err)
	}

	// Identical job shapes (tool × governed) ran from shared cached
	// artifacts; any cross-session mutation through a shared template
	// would skew a session's counters away from its twins'.
	fires := map[string]uint64{}
	for i, sess := range s.Fleet().Sessions() {
		info := sess.Info()
		if info.State != monitor.SessionDone {
			t.Fatalf("session %s: %s (%s)", info.Session, info.State, info.Error)
		}
		snap := sess.Collector().Snapshot(info.Backend)
		if snap.UntrackedFires != 0 {
			t.Fatalf("session %s: %d untracked fires — cross-session probe-ID bleed", info.Session, snap.UntrackedFires)
		}
		shape := fmt.Sprintf("%s/governed=%v", tools[i%len(tools)], i%4 == 3)
		if want, seen := fires[shape]; seen && info.Fires != want {
			t.Fatalf("session %s (%s): %d fires, twin had %d — shared artifacts leaked state across sessions",
				info.Session, shape, info.Fires, want)
		}
		fires[shape] = info.Fires
	}
	if st := s.Artifacts().Stats(); st.Hits() == 0 {
		t.Fatal("soak recorded zero artifact-cache hits; the shared cache was never exercised")
	}
}
