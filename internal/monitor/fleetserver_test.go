package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/governor"
	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// A single run served as a fleet of one: health, the session's stats
// document, its series, and monotone /metrics scrapes at the HTTP level.
func TestEndpointsServeLiveState(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	f := NewFleet()
	series := obs.NewSeries(col, "vm", obs.SeriesOptions{Interval: time.Hour})
	sess, err := f.Add(SessionLabels{Session: "s1", Tool: "inline", Victim: "v", Backend: "vm"}, col, series)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Finish(SessionDone, 0, 0, "")
	ts := httptest.NewServer(NewFleetServer(FleetConfig{Fleet: f}).Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	col.Fire(id, 5, 0x40)
	code, body := get(t, ts.URL+"/sessions/s1/stats")
	if code != 200 {
		t.Fatalf("/sessions/s1/stats = %d", code)
	}
	var stats obs.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/sessions/s1/stats not JSON: %v", err)
	}
	if stats.Backend != "vm" || stats.TotalFires != 1 || len(stats.Probes) != 1 {
		t.Fatalf("/sessions/s1/stats = %+v", stats)
	}
	if code, _ := get(t, ts.URL+"/sessions/s2/stats"); code != http.StatusNotFound {
		t.Fatalf("/sessions/s2/stats = %d, want 404", code)
	}

	// The series endpoint reflects sampler points (driven manually here;
	// the hour-long interval keeps the sampler goroutine out of the way).
	series.Sample(time.Second)
	code, body = get(t, ts.URL+"/series")
	if code != 200 {
		t.Fatalf("/series = %d", code)
	}
	var dump FleetSeriesDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/series not JSON: %v", err)
	}
	if len(dump.Sessions) != 1 || dump.Sessions[0].Session != "s1" {
		t.Fatalf("/series sessions = %+v", dump.Sessions)
	}
	if pts := dump.Sessions[0].Series.Points; len(pts) != 1 || pts[0].Total.Fires != 1 || dump.Last.Fires != 1 {
		t.Fatalf("/series = %+v", dump)
	}

	// Two /metrics scrapes with activity in between: conformant and
	// monotone at the HTTP level.
	_, m1 := get(t, ts.URL+"/metrics")
	first := checkExposition(t, m1)
	for i := 0; i < 10; i++ {
		col.Fire(id, 5, 0x40)
	}
	_, m2 := get(t, ts.URL+"/metrics")
	second := checkExposition(t, m2)
	for key, v1 := range first {
		if strings.Contains(key, "_total") && second[key] < v1 {
			t.Errorf("counter %s decreased across scrapes: %v -> %v", key, v1, second[key])
		}
	}
	key := `cinnamon_probe_fires_total{` + s1("vm") + `,probe="hot",trigger="before",mechanism="clean-call"}`
	if second[key] != first[key]+10 {
		t.Fatalf("scrape delta = %v -> %v, want +10", first[key], second[key])
	}
}

// POST /sessions/{id}/governor is bounded: unknown or ungoverned
// sessions are 404, malformed commands 400, and a session that is not
// running 409 — its governor never paces again, so a queued command
// would only grow the mailbox.
func TestSessionGovernorControl(t *testing.T) {
	f := NewFleet()
	governed := func(id string) *FleetSession {
		col := obs.New(obs.Options{})
		sess, err := f.Add(SessionLabels{Session: id, Tool: "t", Victim: "v", Backend: "vm"}, col, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := governor.New(governor.Config{Budget: 0.05, Collector: col})
		if err != nil {
			t.Fatal(err)
		}
		sess.SetGovernor(g)
		return sess
	}
	governed("running").Start()
	governed("queued")
	governed("done").Finish(SessionDone, 0, 0, "")
	if _, err := f.Add(SessionLabels{Session: "plain", Tool: "t", Victim: "v", Backend: "vm"}, obs.New(obs.Options{}), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewFleetServer(FleetConfig{Fleet: f}).Handler())
	defer ts.Close()

	const rearm = `{"probe":1,"action":"rearm"}`
	for _, c := range []struct {
		name, method, session, body string
		want                        int
	}{
		{"state", http.MethodGet, "running", "", http.StatusOK},
		{"settled state", http.MethodGet, "done", "", http.StatusOK},
		{"command", http.MethodPost, "running", rearm, http.StatusOK},
		{"stride command", http.MethodPost, "running", `{"probe":1,"action":"stride","stride":8}`, http.StatusOK},
		{"unknown session", http.MethodPost, "nope", rearm, http.StatusNotFound},
		{"ungoverned session", http.MethodGet, "plain", "", http.StatusNotFound},
		{"ungoverned command", http.MethodPost, "plain", rearm, http.StatusNotFound},
		{"bad JSON", http.MethodPost, "running", `{"probe":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "running", `{"probe":1,"action":"rearm","force":true}`, http.StatusBadRequest},
		{"bad action", http.MethodPost, "running", `{"probe":1,"action":"boost"}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "running", `{"action":"rearm","probe":1` + strings.Repeat(" ", maxBodyBytes) + `}`, http.StatusBadRequest},
		{"queued session", http.MethodPost, "queued", rearm, http.StatusConflict},
		{"settled session", http.MethodPost, "done", rearm, http.StatusConflict},
		{"method", http.MethodDelete, "running", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, ts.URL+"/sessions/"+c.session+"/governor", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: %s /sessions/%s/governor = %d, want %d (%s)", c.name, c.method, c.session, resp.StatusCode, c.want, body)
		}
		if c.want == http.StatusOK && c.method == http.MethodGet {
			var st governor.State
			if err := json.Unmarshal(body, &st); err != nil || st.Budget != 0.05 {
				t.Errorf("%s: governor state %s (%v)", c.name, body, err)
			}
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name, data string
}

func readSSE(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case line == "":
			if ev.name != "" || ev.data != "" {
				return ev
			}
		}
	}
}

// A slow /trace client loses events, never stalls the run: the drops
// surface on heartbeats, and on disconnect the handler unsubscribes and
// the collector keeps the retired drops in its monotone total.
func TestTraceSSEStreamsEventsAndAccountsDrops(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechInlinedCall})
	f, _ := single(t, col, "vm")
	// One-event buffers plus a fast heartbeat make slow-client drops
	// both quick to provoke and quick to observe.
	ts := httptest.NewServer(NewFleetServer(FleetConfig{Fleet: f, TraceBuf: 1, Heartbeat: 10 * time.Millisecond}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// Wait for the handler's subscription to attach.
	deadline := time.Now().Add(5 * time.Second)
	for col.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// Fire until the one-slot tap demonstrably overflowed. The run side
	// never blocks: this loop is the VM's hot path standing in.
	fired := 0
	for col.SubscriberDrops() == 0 {
		col.Fire(id, 2, uint64(fired))
		fired++
		if fired > 1_000_000 {
			t.Fatal("no drops after 1M fires with a 1-buffer subscriber")
		}
	}

	// The stream must deliver real, session-tagged fire events and a
	// heartbeat whose drop count surfaces the overflow.
	sawFire := false
	var hb fleetHeartbeat
	for i := 0; i < 1000; i++ {
		ev := readSSE(t, br)
		switch ev.name {
		case "fire":
			var te FleetTraceEvent
			if err := json.Unmarshal([]byte(ev.data), &te); err != nil {
				t.Fatalf("fire event not JSON: %q", ev.data)
			}
			if te.Session != "s1" || te.Probe != 1 || te.Cost != 2 {
				t.Fatalf("fire event = %+v", te)
			}
			sawFire = true
		case "heartbeat":
			if err := json.Unmarshal([]byte(ev.data), &hb); err != nil {
				t.Fatalf("heartbeat not JSON: %q", ev.data)
			}
			if sawFire && hb.Dropped >= 1 {
				if hb.Sessions != 1 {
					t.Fatalf("heartbeat sessions = %d, want 1", hb.Sessions)
				}
				// Disconnect; the handler must unsubscribe and fold its
				// tap's drops into the collector's monotone total.
				tapDrops := col.SubscriberDrops()
				resp.Body.Close()
				deadline := time.Now().Add(5 * time.Second)
				for col.Subscribers() != 0 {
					if time.Now().After(deadline) {
						t.Fatal("handler never unsubscribed after disconnect")
					}
					time.Sleep(time.Millisecond)
				}
				if col.SubscriberDrops() < tapDrops {
					t.Fatalf("retired drops %d < live drops %d", col.SubscriberDrops(), tapDrops)
				}
				return
			}
		}
	}
	t.Fatalf("never observed fire + heartbeat-with-drops (sawFire=%v, last hb=%+v)", sawFire, hb)
}

// Shutdown releases an open /trace stream instead of hanging on it,
// and Finish stops the session's series after a final point.
func TestStartServesAndShutdownReleasesStreams(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 8})
	col.RegisterProbe(obs.ProbeMeta{Label: "p", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	f := NewFleet()
	sess, err := f.Add(SessionLabels{Session: "s1", Tool: "inline", Victim: "v", Backend: "vm"}, col,
		obs.NewSeries(col, "vm", obs.SeriesOptions{Interval: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	s := NewFleetServer(FleetConfig{Fleet: f, Heartbeat: 10 * time.Millisecond})

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// Hold an SSE stream open across shutdown: Shutdown must release the
	// handler (via the quit channel) rather than hanging on the drain.
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	readSSE(t, bufio.NewReader(resp.Body)) // at least one heartbeat flows

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown hung on the open SSE stream")
	}

	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
	// Settling the session took the sampler's final point and stopped it.
	sess.Finish(SessionDone, 0, 0, "")
	if len(sess.Series().Points()) == 0 {
		t.Fatal("series has no points after Finish")
	}
}
