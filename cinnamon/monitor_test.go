package cinnamon

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obj"
	"repro/internal/progs"
	"repro/internal/workload"
)

// TestLiveMonitoredSession is the acceptance path of live monitoring: a
// tool instruments a looped victim with the monitor attached — the run
// served as session s1 of a fleet of one — the "operator" scrapes
// /metrics and /sessions/s1/stats while the victim is still running, and
// the session-labelled scrapes must be monotone, must keep moving and
// must be bounded by the final report, which must reconcile exactly. The
// use-after-free monitor fires specialized probes and opcodemix only
// promoted counters; the machine attributes both in batches when it
// flushes, so their rows move mid-run through its periodic flush.
func TestLiveMonitoredSession(t *testing.T) {
	cases := []struct {
		tool, victim string
		loop         int
	}{
		{progs.UseAfterFree, "uaf_bug", 15_000},
		// About half a second of counting on an unloaded host.
		{progs.OpcodeMix, "spin", 200_000},
	}
	for _, c := range cases {
		t.Run(c.tool, func(t *testing.T) { liveMonitoredSession(t, c.tool, c.victim, c.loop) })
	}
}

func liveMonitoredSession(t *testing.T, toolName, victim string, loop int) {
	src, err := progs.Source(toolName)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := workload.LoopedVictim(victim, loop)
	if err != nil {
		t.Fatal(err)
	}
	target, err := LoadModules([]*obj.Module{m})
	if err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := tool.Run(target, Pin, RunOptions{
			ToolOut:     io.Discard,
			MonitorAddr: "127.0.0.1:0",
			Interval:    50 * time.Millisecond,
			OnMonitor:   func(addr string) { addrCh <- addr },
		})
		done <- result{rep, err}
	}()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case res := <-done:
		t.Fatalf("run finished before the monitor came up: %+v %v", res.rep, res.err)
	}

	httpGet := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(b)
	}

	if body := httpGet("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}

	// The monitor comes up before the backend starts placing probes;
	// wait until the run is visibly underway before asserting on scrapes.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var probing Stats
		if err := json.Unmarshal([]byte(httpGet("/sessions/s1/stats")), &probing); err != nil {
			t.Fatalf("/sessions/s1/stats: %v", err)
		}
		if probing.TotalFires > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started firing")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two consecutive mid-run scrapes: every counter monotone.
	parse := func(text string) map[string]float64 {
		out := map[string]float64{}
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndex(line, " ")
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			out[line[:sp]] = v
		}
		return out
	}
	scrape1 := parse(httpGet("/metrics"))
	var live Stats
	if err := json.Unmarshal([]byte(httpGet("/sessions/s1/stats")), &live); err != nil {
		t.Fatalf("/sessions/s1/stats: %v", err)
	}
	scrape2 := parse(httpGet("/metrics"))
	for key, v1 := range scrape1 {
		if v2, ok := scrape2[key]; !ok || (strings.Contains(key, "_total") && v2 < v1) {
			t.Errorf("series %s went %v -> %v across scrapes", key, v1, v2)
		}
	}
	if live.Backend != Pin || len(live.Probes) == 0 {
		t.Fatalf("mid-run /sessions/s1/stats = %+v", live)
	}
	// Every series is labelled with the run's session identity; the
	// victim label is the executable module's name.
	session := `session="s1",tool="inline",victim="` + victim + `",backend="pin"`
	sessionFires := `cinnamon_session_fires_total{` + session + `}`
	if scrape2[sessionFires] != scrape2["cinnamon_fleet_fires_total"] {
		t.Errorf("%s = %v, fleet rollup %v", sessionFires, scrape2[sessionFires], scrape2["cinnamon_fleet_fires_total"])
	}

	// The rows keep moving while the run goes on.
	for {
		select {
		case res := <-done:
			t.Fatalf("run ended (err %v) before its fires moved past %d mid-run", res.err, live.TotalFires)
		default:
		}
		var later Stats
		if err := json.Unmarshal([]byte(httpGet("/sessions/s1/stats")), &later); err != nil {
			t.Fatalf("/sessions/s1/stats: %v", err)
		}
		if later.TotalFires < live.TotalFires {
			t.Fatalf("session fires went %d -> %d", live.TotalFires, later.TotalFires)
		}
		if later.TotalFires > live.TotalFires {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	final := res.rep.Stats
	if final == nil {
		t.Fatal("MonitorAddr did not imply Stats")
	}

	// The run fired constantly after the scrapes, so the final report
	// strictly dominates them; and it reconciles exactly internally.
	fireKeys := 0
	for key, v := range scrape2 {
		if !strings.HasPrefix(key, "cinnamon_probe_fires_total{"+session+",") {
			continue
		}
		fireKeys++
		if uint64(v) > final.TotalFires {
			t.Errorf("scraped %s=%v exceeds final total %d", key, v, final.TotalFires)
		}
	}
	if fireKeys == 0 {
		t.Error("no per-probe fire series in the mid-run scrape")
	}
	if live.TotalFires > final.TotalFires || uint64(scrape2[sessionFires]) > final.TotalFires {
		t.Errorf("mid-run totals %d (stats), %v (metrics) exceed final %d",
			live.TotalFires, scrape2[sessionFires], final.TotalFires)
	}
	var sum uint64
	for _, p := range final.Probes {
		sum += p.Fires
	}
	if sum+final.UntrackedFires != final.TotalFires {
		t.Errorf("final report does not reconcile: %d + %d != %d",
			sum, final.UntrackedFires, final.TotalFires)
	}
	// Each loop iteration fires at least once: a malloc, or the
	// instructions opcodemix counts.
	if final.TotalFires < uint64(loop) {
		t.Errorf("final fires = %d, want >= %d", final.TotalFires, loop)
	}

	// The monitor shut down with the run.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("monitor still serving after the run ended")
	}
}
