package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/core/artifacts"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/progs"
	"repro/perfbench/calib"
)

// The fleet workload: cinnamond's scheduler and HTTP surface, in
// process, running the tools of the repository's fleet load harness
// (internal/bench.Fleet, recorded in BENCH_fleet.json) on the spin victim
// looped fleetLoop times. Each round is a fresh scheduler with a pool of
// fleetWorkers workers and its server: one client submits the round's
// fleetSessions jobs over POST /sessions, waiting for each session to
// settle before it submits the next (a closed loop), while a scraper
// fetches /metrics every fleetScrapeEvery and checks rollup exactness on
// every page. One session in four runs under a 5% overhead governor, the
// budget of the docs/FLEET.md example and the share the scheduler's
// 32-session race soak (internal/fleet) governs. A fresh scheduler per
// round keeps the registry a scrape walks, which never forgets a
// session, at one round: it grows to fleetSessions. The artifact cache
// outlives the rounds, as a long-lived daemon's does: the first round
// builds cold and later rounds start warm.
//
// The load harness runs 48 sessions at once on 32 workers with a scraper
// in a tight loop. On a machine of two vCPUs that measures how the host
// and the Go scheduler share the cores: with 32 workers, session latency
// spread by a quarter over ten runs, and even with two sessions at once
// it spread by a third over five, because two loops at once on that
// machine ran anywhere from as fast as one to five times slower. So one
// session runs at a time, on a pool with a spare worker, and the scraper
// is paced: it runs beside the session, and a cheaper exposition leaves
// more of the machine to the sessions and shows in their latency.
//
// Sessions this long also keep the run clear of a race in
// fleet.Scheduler.Submit, which starts a session's series after queueing
// the session: a worker that settles a session of a millisecond or two
// before Submit gets there closes a nil channel (a panic) or waits on
// one forever. With sessions of 50k instructions, two runs in about
// twenty met it.

// Sessions per round (the load harness's), workers, scrape period and
// loop count of the victim (the load harness's).
const (
	fleetSessions    = 48
	fleetWorkers     = 2
	fleetScrapeEvery = 50 * time.Millisecond
	fleetLoop        = 20_000
	fleetVictim      = "spin"
	// fleetProcs is the daemon's GOMAXPROCS: the load harness's recorded
	// numbers come from a machine of one core.
	fleetProcs = 1
)

// fleetTools are the load harness's tools.
var fleetTools = []string{progs.InstCountBasic, progs.OpcodeMix, progs.LoopCoverage}

// fleetJobs lists the distinct jobs, every (tool, backend) pair of the
// fleet tools, plain and governed, and the round: each pair
// fleetSessions/len(pairs) times, with two governed sessions for even
// pairs and one for odd ones, a quarter of the round in all. The seed
// orders each round's submissions; it does not choose which sessions are
// governed, so every run measures the same mix.
func fleetJobs() (jobs []job, round []int, err error) {
	tg := loopedTarget(fleetVictim, fleetLoop)
	var pairs [][2]string
	for _, p := range toolBackends() {
		if slices.Contains(fleetTools, p[0]) {
			pairs = append(pairs, p)
		}
	}
	per := fleetSessions / len(pairs)
	for pi, p := range pairs {
		plain, governed := len(jobs), len(jobs)+1
		jobs = append(jobs, job{tool: p[0], backend: p[1], target: tg},
			job{tool: p[0], backend: p[1], target: tg, budget: "5%"})
		nGov := 2 - pi%2
		for k := 0; k < per; k++ {
			if k < nGov {
				round = append(round, governed)
			} else {
				round = append(round, plain)
			}
		}
	}
	if len(round) != fleetSessions {
		return nil, nil, fmt.Errorf("%d fleet pairs do not divide %d sessions", len(pairs), fleetSessions)
	}
	return jobs, round, nil
}

func runFleet(b *bench) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fleetProcs))
	jobs, round, err := fleetJobs()
	if err != nil {
		return err
	}
	bt, err := b.setUp(jobs, nil)
	if err != nil {
		return err
	}
	refs, err := references(bt, jobs)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	cache := artifacts.New(artifacts.Options{})
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(b.seconds)
	sessNo := 0
	for time.Now().Before(deadline) {
		batch := slices.Clone(round)
		rng.Shuffle(len(batch), func(a, c int) { batch[a], batch[c] = batch[c], batch[a] })
		if err := b.fleetRound(client, jobs, batch, refs, cache, &sessNo); err != nil {
			return err
		}
	}
	st := cache.Stats()
	b.cacheHits, b.cacheMisses = st.Hits(), st.Misses()
	return nil
}

// submitted is one session of a round.
type submitted struct {
	j    int
	id   string
	at   time.Time
	sess int
	// cal is the calibration time measured right after the session.
	cal time.Duration
}

// fleetRound runs one batch of jobs (indices into jobs) on a fresh
// scheduler and server.
func (b *bench) fleetRound(client *http.Client, jobs []job, batch []int, refs map[string]outcome, cache *artifacts.Cache, sessNo *int) error {
	sched := fleet.NewScheduler(fleet.Config{
		Workers:   fleetWorkers,
		Queue:     len(batch),
		Interval:  50 * time.Millisecond,
		Artifacts: cache,
	})
	srv := monitor.NewFleetServer(monitor.FleetConfig{
		Fleet:     sched.Fleet(),
		Ready:     sched.Accepting,
		Submit:    sched.SubmitJSON,
		Artifacts: sched.ArtifactStats,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = sched.Drain(ctx)
		return err
	}
	defer func() {
		// Idle client connections go first: the server's shutdown waits
		// for a connection that never carried a request.
		client.CloseIdleConnections()
		_ = sched.Drain(ctx)
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + addr
	round := b.tr.begin("round", 0, 0)

	// The scraper runs for the whole round; its findings are read after
	// it has exited.
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	inexact := 0
	go func() {
		tick := time.NewTicker(fleetScrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			case <-tick.C:
			}
			var page []byte
			err := b.tr.do("expose", round, 0, func() (err error) {
				page, err = get(client, base+"/metrics")
				return err
			})
			if err != nil {
				scraped <- err
				return
			}
			if !rollupExact(page, sched.Fleet()) {
				inexact++
			}
		}
	}()

	// The client submits each job and waits for it to settle before it
	// submits the next; the calibration runs right after each session.
	subs := make([]submitted, 0, len(batch))
	var runErr error
	for k, j := range batch {
		at := time.Now()
		id, err := submit(client, base, jobs[j])
		if err == nil {
			err = settled(ctx, sched.Fleet(), id)
		}
		if err != nil {
			runErr = err
			break
		}
		subs = append(subs, submitted{j: j, id: id, at: at, sess: *sessNo + k + 1, cal: calib.Loop()})
	}
	if runErr == nil {
		runErr = sched.Wait(ctx)
	}
	close(stop)
	scrapeErr := <-scraped
	b.tr.end(round)
	*sessNo += len(batch)
	if runErr != nil {
		return runErr
	}

	for _, s := range subs {
		j := jobs[s.j]
		sess, ok := sched.Fleet().Get(s.id)
		if !ok {
			return fmt.Errorf("session %s vanished", s.id)
		}
		var info monitor.SessionInfo
		_ = b.tr.do("snapshot", round, s.sess, func() error {
			info = sess.Info()
			return nil
		})
		b.attempted++
		if info.State != monitor.SessionDone {
			b.fail(false, "session %s: %s: %s", j, info.State, info.Error)
			continue
		}
		b.tr.add("execute", round, s.sess, info.StartedAt, info.FinishedAt)
		b.record(s.j, info.FinishedAt.Sub(s.at), s.cal)
		b.insts += info.Insts
		b.fires += info.Fires
		got := outcome{insts: info.Insts, cycles: info.Cycles, fires: info.Fires, skips: info.Skips}
		if !got.same(refs[j.String()], false) {
			b.fail(true, "session %s: counters differ from the reference", j)
		}
	}
	if scrapeErr != nil {
		b.fail(false, "scrape: %v", scrapeErr)
	}
	if inexact > 0 {
		b.fail(true, "%d scrapes broke fleet rollup exactness", inexact)
	}
	return nil
}

// settled waits until the session has left the queued and running
// states. Its latency is read from its own finish time, so the polling
// period only delays the client's next submission.
func settled(ctx context.Context, f *monitor.Fleet, id string) error {
	sess, ok := f.Get(id)
	if !ok {
		return fmt.Errorf("session %s vanished", id)
	}
	for {
		switch sess.State() {
		case monitor.SessionQueued, monitor.SessionRunning:
		default:
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("session %s: %w", id, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// submit posts one job to the fleet and returns its session ID.
func submit(client *http.Client, base string, j job) (string, error) {
	body, err := json.Marshal(fleet.JobSpec{
		Tool: j.tool, Victim: j.target.victim, Backend: j.backend,
		Loop: j.target.loop, Budget: j.budget,
	})
	if err != nil {
		return "", err
	}
	resp, err := client.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit %s: %w", j, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit %s: %s: %s", j, resp.Status, msg)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("submit %s: %w", j, err)
	}
	return out.Session, nil
}

// get fetches a URL and returns the body of a 200 response.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// rollupExact checks one scrape: the fleet's fire total must equal the
// sum of the per-session series in the same document.
func rollupExact(page []byte, f *monitor.Fleet) bool {
	series := monitor.ParseSamples(string(page))
	var sum float64
	for _, sess := range f.Sessions() {
		l := sess.Labels()
		sum += series[fmt.Sprintf(`cinnamon_session_fires_total{session="%s",tool="%s",victim="%s",backend="%s"}`,
			l.Session, l.Tool, l.Victim, l.Backend)]
	}
	return series["cinnamon_fleet_fires_total"] == sum
}
