package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fleetSession registers one synthetic session with a probe already
// firing, returning its collector for the test to drive.
func fleetSession(t *testing.T, f *Fleet, id, tool, victim, backendName string) (*FleetSession, *obs.Collector, obs.ProbeID) {
	t.Helper()
	col := obs.New(obs.Options{TraceCap: 8})
	series := obs.NewSeries(col, backendName, obs.SeriesOptions{Interval: 10 * time.Millisecond, Cap: 16})
	sess, err := f.Add(SessionLabels{Session: id, Tool: tool, Victim: victim, Backend: backendName}, col, series)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Finish(SessionDone, 0, 0, "") }) // stops the series
	probe := col.RegisterProbe(obs.ProbeMeta{Label: "before inst", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	return sess, col, probe
}

// fleetScrape renders the fleet exposition and validates conformance.
func fleetScrape(t *testing.T, f *Fleet) (string, map[string]float64) {
	t.Helper()
	var b strings.Builder
	WriteFleetMetrics(&b, f)
	return b.String(), checkExposition(t, b.String())
}

// The fleet exposition carries every session under its full label set,
// and the cinnamon_fleet_* rollups are exactly the sum of the
// per-session series — both computed from the same snapshots.
func TestFleetExpositionMultiLabelRollups(t *testing.T) {
	f := NewFleet()
	_, colA, pA := fleetSession(t, f, "s1", "instcount_basic", "spin", "janus")
	_, colB, pB := fleetSession(t, f, "s2", "opcodemix", "loopy", "pin")
	_, colC, pC := fleetSession(t, f, "s3", "instcount_basic", "spin", "janus")

	for i := 0; i < 5; i++ {
		colA.Fire(pA, 3, 0x10)
	}
	for i := 0; i < 7; i++ {
		colB.Fire(pB, 2, 0x20)
	}
	colC.Fire(pC, 1, 0x30)
	colC.Fire(obs.NoProbe, 4, 0x40) // untracked

	text, series := fleetScrape(t, f)

	probeKeyA := `cinnamon_probe_fires_total{session="s1",tool="instcount_basic",victim="spin",backend="janus",probe="before inst",trigger="before",mechanism="clean-call"}`
	if series[probeKeyA] != 5 {
		t.Fatalf("per-probe series for s1 = %v, want 5\n%s", series[probeKeyA], text)
	}

	var sessSum float64
	for _, id := range []struct{ sess, tool, victim, backend string }{
		{"s1", "instcount_basic", "spin", "janus"},
		{"s2", "opcodemix", "loopy", "pin"},
		{"s3", "instcount_basic", "spin", "janus"},
	} {
		key := fmt.Sprintf(`cinnamon_session_fires_total{session="%s",tool="%s",victim="%s",backend="%s"}`,
			id.sess, id.tool, id.victim, id.backend)
		v, ok := series[key]
		if !ok {
			t.Fatalf("missing per-session total %s\n%s", key, text)
		}
		sessSum += v
	}
	if got := series["cinnamon_fleet_fires_total"]; got != sessSum || got != 14 {
		t.Fatalf("fleet fires rollup = %v, session sum = %v, want both 14\n%s", got, sessSum, text)
	}
	// s3's untracked firing counts in its session total and the rollup.
	if series[`cinnamon_session_fires_total{session="s3",tool="instcount_basic",victim="spin",backend="janus"}`] != 2 {
		t.Fatalf("s3 session total should include the untracked fire\n%s", text)
	}
	if series[`cinnamon_fleet_sessions{state="queued"}`] != 3 {
		t.Fatalf("state gauge wrong\n%s", text)
	}

	// ParseSamples (the harness-side parser) agrees with the test
	// validator on every series.
	parsed := ParseSamples(text)
	if len(parsed) != len(series) {
		t.Fatalf("ParseSamples found %d series, validator %d", len(parsed), len(series))
	}
	for k, v := range series {
		if parsed[k] != v {
			t.Fatalf("ParseSamples[%s] = %v, want %v", k, parsed[k], v)
		}
	}
}

// Session label values are escaped in exposition exactly like probe
// labels, and hostile values never reach the registry unvalidated.
func TestFleetLabelEscapingAndValidation(t *testing.T) {
	f := NewFleet()
	col := obs.New(obs.Options{})
	labels := SessionLabels{Session: `s"1\x`, Tool: "tool", Victim: "victim", Backend: "vm"}
	if _, err := f.Add(labels, col, nil); err != nil {
		t.Fatalf("printable specials must validate: %v", err)
	}
	text, series := fleetScrape(t, f)
	key := `cinnamon_session_fires_total{session="s\"1\\x",tool="tool",victim="victim",backend="vm"}`
	if _, ok := series[key]; !ok {
		t.Fatalf("escaped session label series missing\n%s", text)
	}

	for _, bad := range []SessionLabels{
		{Session: "", Tool: "t", Victim: "v", Backend: "b"},
		{Session: "s", Tool: "a\nb", Victim: "v", Backend: "b"},
		{Session: "s", Tool: "t", Victim: "a\x01b", Backend: "b"},
		{Session: "s", Tool: "t", Victim: "v", Backend: string([]byte{0xff, 0xfe})},
		{Session: strings.Repeat("x", maxLabelLen+1), Tool: "t", Victim: "v", Backend: "b"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("labels %+v validated, want rejection", bad)
		}
	}

	// Duplicate session IDs are rejected.
	if _, err := f.Add(labels, obs.New(obs.Options{}), nil); err == nil {
		t.Fatal("duplicate session ID admitted")
	}
}

// Rollups stay exact and monotone while every session's collector is
// being hammered concurrently: each scrape is internally consistent
// (fleet total == sum of session totals from the same render) and
// counters never regress between scrapes. Run under -race this is also
// the torn-read check on the snapshot path.
func TestFleetRollupConsistencyUnderChurn(t *testing.T) {
	f := NewFleet()
	const sessions = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		_, col, probe := fleetSession(t, f, fmt.Sprintf("s%d", i+1), "tool", "spin", "vm")
		wg.Add(1)
		go func(col *obs.Collector, probe obs.ProbeID) {
			defer wg.Done()
			for !stop.Load() {
				col.Fire(probe, 2, 0x10)
			}
		}(col, probe)
	}

	var prevFleet float64
	for scrape := 0; scrape < 50; scrape++ {
		text, series := fleetScrape(t, f)
		var sum float64
		for i := 0; i < sessions; i++ {
			sum += series[fmt.Sprintf(`cinnamon_session_fires_total{session="s%d",tool="tool",victim="spin",backend="vm"}`, i+1)]
		}
		got := series["cinnamon_fleet_fires_total"]
		if got != sum {
			t.Fatalf("scrape %d: fleet rollup %v != session sum %v\n%s", scrape, got, sum, text)
		}
		if got < prevFleet {
			t.Fatalf("scrape %d: fleet fires regressed %v -> %v", scrape, prevFleet, got)
		}
		prevFleet = got
	}
	stop.Store(true)
	wg.Wait()
}

// The fleet endpoints: lifecycle JSON, submission delegation, readiness
// flip, and the multiplexed SSE stream with session-tagged events.
func TestFleetServerEndpoints(t *testing.T) {
	f := NewFleet()
	sess, col, probe := fleetSession(t, f, "s1", "tool", "spin", "vm")
	sess.Start()
	col.Fire(probe, 2, 0x10)

	ready := atomic.Bool{}
	ready.Store(true)
	var submitted []byte
	srv := NewFleetServer(FleetConfig{
		Fleet: f,
		Ready: func() bool { return ready.Load() },
		Submit: func(body []byte) (any, error) {
			submitted = body
			return map[string]string{"session": "s2"}, nil
		},
		Heartbeat: 20 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// /metrics is valid exposition with the session's labels.
	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type %q", ct)
	}
	series := checkExposition(t, body)
	if series[`cinnamon_session_fires_total{session="s1",tool="tool",victim="spin",backend="vm"}`] != 1 {
		t.Fatalf("session series missing from /metrics:\n%s", body)
	}

	// /sessions lists, and narrows by ID.
	_, body = get("/sessions")
	var infos []SessionInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil || len(infos) != 1 {
		t.Fatalf("GET /sessions: %v (%s)", err, body)
	}
	if infos[0].Session != "s1" || infos[0].State != SessionRunning || infos[0].Fires != 1 {
		t.Fatalf("session info %+v", infos[0])
	}
	resp, _ = get("/sessions?session=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session -> %d, want 404", resp.StatusCode)
	}

	// POST delegates to the scheduler hook.
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"tool":"x","victim":"spin"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(submitted), `"victim":"spin"`) {
		t.Fatalf("POST /sessions: %d, body %s", resp.StatusCode, submitted)
	}

	// Readiness follows the scheduler; liveness does not.
	resp, _ = get("/healthz/ready")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready -> %d", resp.StatusCode)
	}
	ready.Store(false)
	resp, _ = get("/healthz/ready")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ready -> %d, want 503", resp.StatusCode)
	}
	resp, _ = get("/healthz/live")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live -> %d", resp.StatusCode)
	}
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz -> %d", resp.StatusCode)
	}

	// Draining also rejects submission.
	resp, err = http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST -> %d, want 503", resp.StatusCode)
	}

	// /series parses and rolls up the last points.
	_, body = get("/series")
	var dump FleetSeriesDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil || len(dump.Sessions) != 1 {
		t.Fatalf("GET /series: %v (%s)", err, body)
	}
}

// The multiplexed /trace stream tags each event with its session and
// reports monotone drop totals on heartbeats; a session registered
// after the stream opened appears at the next tick.
func TestFleetTraceMultiplex(t *testing.T) {
	f := NewFleet()
	_, colA, pA := fleetSession(t, f, "s1", "tool", "spin", "vm")

	srv := NewFleetServer(FleetConfig{Fleet: f, Heartbeat: 15 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// Late-registered session: must be tapped by a heartbeat re-attach.
	_, colB, pB := fleetSession(t, f, "s2", "tool", "loopy", "vm")

	fire := make(chan struct{})
	go func() {
		for {
			select {
			case <-fire:
				return
			case <-time.After(5 * time.Millisecond):
				colA.Fire(pA, 1, 0x10)
				colB.Fire(pB, 1, 0x20)
			}
		}
	}()
	defer close(fire)

	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !(seen["s1"] && seen["s2"]) {
		select {
		case <-deadline:
			t.Fatalf("timed out; saw %v", seen)
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed; saw %v", seen)
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev FleetTraceEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err == nil && ev.Session != "" {
				seen[ev.Session] = true
			}
		}
	}
}
