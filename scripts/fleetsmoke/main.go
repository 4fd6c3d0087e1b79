// Command fleetsmoke is the CI smoke test for the monitoring server,
// run over the real binaries, real flags and real HTTP, so a wiring
// regression in cmd/cinnamon or cmd/cinnamond fails CI even if every
// package test passes. It has two phases:
//
//   - cinnamon -listen: a single looping run, served as session s1 of a
//     fleet of one. It checks /healthz, a session-labelled
//     cinnamon_probe_fires_total series, one SSE fire event,
//     /sessions/s1/stats and, since the run has a -budget,
//     /sessions/s1/governor; then it kills the run and verifies it
//     exits.
//   - cinnamond: the daemon on an ephemeral port takes 8 sessions over
//     the real POST /sessions API; once they settle, /metrics must show
//     fleet rollups exactly equal to the sum of the per-session series,
//     the shared artifact cache's hits and misses, and /sessions the
//     cold/warm build sources; finally SIGTERM must drain the daemon
//     to a clean exit.
//
// Run from the repository root (scripts/ci.sh does):
//
//	go run ./scripts/fleetsmoke
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const sessions = 8

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetsmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("fleetsmoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "fleetsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, name := range []string{"cinnamon", "cinnamond"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(tmp, name), "./cmd/"+name).CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	if err := listenPhase(filepath.Join(tmp, "cinnamon")); err != nil {
		return fmt.Errorf("cinnamon -listen: %w", err)
	}
	if err := daemonPhase(filepath.Join(tmp, "cinnamond")); err != nil {
		return fmt.Errorf("cinnamond: %w", err)
	}
	return nil
}

// listenPhase drives one `cinnamon -listen` run. The victim loops far
// longer than the checks take, and the budget is loose enough that the
// governor is attached without ever silencing the probes.
func listenPhase(bin string) error {
	cmd, base, err := launch(bin, "-backend=pin", "-target=victim:uaf_bug",
		"-listen=127.0.0.1:0", "-interval=100ms", "-loop=2000000", "-budget=50%", "@useafterfree")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()

	if err := expectStatus(base+"/healthz", http.StatusOK); err != nil {
		return err
	}
	// The server comes up before the run places its probes, so the
	// first scrapes may predate them; poll until the run is firing.
	const fires = `cinnamon_probe_fires_total{session="s1",tool="inline",victim="uaf_bug",backend="pin",`
	deadline := time.Now().Add(30 * time.Second)
	for {
		metrics, err := get(base + "/metrics")
		if err != nil {
			return err
		}
		if strings.Contains(metrics, fires) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/metrics never showed a session-labelled probe-fire series:\n%s", metrics)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := readFireEvent(base + "/trace"); err != nil {
		return err
	}

	type governor struct {
		Budget float64 `json:"budget"`
		Paces  uint64  `json:"paces"`
	}
	var stats struct {
		Backend    string    `json:"backend"`
		TotalFires uint64    `json:"total_fires"`
		Governor   *governor `json:"governor"`
	}
	if err := getJSON(base+"/sessions/s1/stats", &stats); err != nil {
		return err
	}
	if stats.Backend != "pin" || stats.TotalFires == 0 || stats.Governor == nil {
		return fmt.Errorf("/sessions/s1/stats = %+v, want pin, fires and the governor's state", stats)
	}
	var gov governor
	if err := getJSON(base+"/sessions/s1/governor", &gov); err != nil {
		return err
	}
	if gov.Budget != 0.5 || gov.Paces == 0 {
		return fmt.Errorf("/sessions/s1/governor = %+v, want budget 0.5 and paces", gov)
	}
	resp, err := http.Post(base+"/sessions/s1/governor", "application/json", strings.NewReader(`{"probe":1,"action":"rearm"}`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /sessions/s1/governor: status %d, want 200", resp.StatusCode)
	}

	// The run must die on the kill, not hang on the server.
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("run did not exit within 10s of kill")
	}
	return nil
}

// daemonPhase drives cinnamond through a churn of sessions and a drain.
func daemonPhase(bin string) error {
	cmd, base, err := launch(bin, "-listen=127.0.0.1:0", "-workers=4", "-interval=100ms", "-drain-timeout=10s")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()

	if err := expectStatus(base+"/healthz/live", http.StatusOK); err != nil {
		return err
	}
	if err := expectStatus(base+"/healthz/ready", http.StatusOK); err != nil {
		return err
	}

	// Submit the sessions over the real API: a mix of tools, one
	// governed, all on the load-harness victim.
	tools := []string{"instcount_basic", "opcodemix", "loopcoverage"}
	for i := 0; i < sessions; i++ {
		job := fmt.Sprintf(`{"tool":"%s","victim":"spin","backend":"janus","loop":3000}`, tools[i%len(tools)])
		if i == sessions-1 {
			job = `{"tool":"instcount_basic","victim":"spin","loop":3000,"budget":"5%"}`
		}
		resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(job))
		if err != nil {
			return fmt.Errorf("POST /sessions: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /sessions: status %d: %s", resp.StatusCode, body)
		}
	}
	// A bad job must be rejected with a useful status.
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"tool":"nope","victim":"spin"}`))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("bad job: status %d, want 400", resp.StatusCode)
	}

	// Wait for every session to settle done.
	deadline := time.Now().Add(60 * time.Second)
	for {
		infos, err := getSessions(base)
		if err != nil {
			return err
		}
		done := 0
		for _, info := range infos {
			switch info.State {
			case "done":
				done++
			case "failed", "canceled":
				return fmt.Errorf("session %s settled %s: %s", info.Session, info.State, info.Error)
			}
		}
		if len(infos) == sessions && done == sessions {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions never settled: %+v", infos)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Scrape and assert rollup exactness: the fleet counter must equal
	// the sum of the per-session series, to the digit.
	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	series := parseSamples(metrics)
	var sum float64
	nSess := 0
	for key, v := range series {
		if strings.HasPrefix(key, "cinnamon_session_fires_total{") {
			sum += v
			nSess++
		}
	}
	fleetTotal := series["cinnamon_fleet_fires_total"]
	if nSess != sessions {
		return fmt.Errorf("/metrics shows %d session series, want %d:\n%s", nSess, sessions, metrics)
	}
	if fleetTotal == 0 || math.Abs(fleetTotal-sum) > 0 {
		return fmt.Errorf("fleet rollup %v != session sum %v", fleetTotal, sum)
	}
	if !strings.Contains(metrics, `session="s1"`) || !strings.Contains(metrics, `victim="spin"`) {
		return fmt.Errorf("/metrics missing session labels:\n%s", metrics)
	}
	// The governed session exposes its budget.
	if series[`cinnamon_governor_budget{session="s8",tool="instcount_basic",victim="spin",backend="janus"}`] != 0.05 {
		return fmt.Errorf("governed session budget missing from /metrics")
	}
	// The shared artifact cache exposes its counters: the 8-session mix
	// over 3 tools must have recorded both misses (first builds) and
	// hits (reuse), and the cache must hold the tools it compiled.
	if series[`cinnamon_artifact_misses_total{kind="tool"}`] == 0 {
		return fmt.Errorf("cinnamon_artifact_misses_total{kind=\"tool\"} is zero after the churn:\n%s", metrics)
	}
	if series[`cinnamon_artifact_hits_total{kind="tool"}`] == 0 || series[`cinnamon_artifact_hits_total{kind="victim"}`] == 0 {
		return fmt.Errorf("cinnamon_artifact_hits_total shows no reuse after the churn:\n%s", metrics)
	}
	if series[`cinnamon_artifact_entries{kind="tool"}`] < 1 || series[`cinnamon_artifact_entries{kind="victim"}`] < 1 {
		return fmt.Errorf("cinnamon_artifact_entries families missing from /metrics:\n%s", metrics)
	}

	// Warm-start lifecycle: with every artifact now cached, a duplicate
	// of session s1 must report build_source "warm" in /sessions, while
	// s1 itself (first to build its tool) stays "cold".
	resp, err = http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"tool":"instcount_basic","victim":"spin","backend":"janus","loop":3000}`))
	if err != nil {
		return fmt.Errorf("POST /sessions (warm duplicate): %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("warm duplicate: status %d, want 202", resp.StatusCode)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		infos, err := getSessions(base)
		if err != nil {
			return err
		}
		var s1, dup *sessionInfo
		for i := range infos {
			switch infos[i].Session {
			case "s1":
				s1 = &infos[i]
			case fmt.Sprintf("s%d", sessions+1):
				dup = &infos[i]
			}
		}
		if dup != nil && dup.State == "done" {
			if dup.BuildSource != "warm" {
				return fmt.Errorf("duplicate session build_source = %q, want \"warm\"", dup.BuildSource)
			}
			if s1 == nil || s1.BuildSource != "cold" {
				return fmt.Errorf("session s1 build_source = %+v, want \"cold\"", s1)
			}
			break
		}
		if dup != nil && (dup.State == "failed" || dup.State == "canceled") {
			return fmt.Errorf("duplicate session settled %s: %s", dup.State, dup.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("duplicate session never settled")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// SIGTERM: the daemon must flip readiness, drain and exit cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd.Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			return fmt.Errorf("cinnamond exited with: %v", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("cinnamond did not exit within 30s of SIGTERM")
	}
	return nil
}

type sessionInfo struct {
	Session     string `json:"session"`
	State       string `json:"state"`
	Error       string `json:"error"`
	BuildSource string `json:"build_source"`
}

func getSessions(base string) ([]sessionInfo, error) {
	var infos []sessionInfo
	err := getJSON(base+"/sessions", &infos)
	return infos, err
}

// getJSON decodes the JSON document served at url into v.
func getJSON(url string, v any) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		return fmt.Errorf("GET %s: %v (%s)", url, err, body)
	}
	return nil
}

// parseSamples extracts series -> value from text exposition (the same
// shape monitor.ParseSamples implements; duplicated here so the smoke
// binary stays a pure HTTP client of the daemon).
func parseSamples(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// launch starts a binary and returns it with the base URL its server
// announces on stderr. The caller kills it.
func launch(bin string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addr, err := scanAddr(stderr)
	if err != nil {
		cmd.Process.Kill()
		return nil, "", err
	}
	return cmd, "http://" + addr, nil
}

// scanAddr reads a binary's stderr until it announces its bound
// address ("cinnamon: monitor listening on http://..." or
// "cinnamond: fleet monitor listening on http://...").
func scanAddr(stderr io.Reader) (string, error) {
	const marker = "monitor listening on http://"
	type res struct {
		addr string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				ch <- res{addr: strings.TrimSpace(line[i+len(marker):])}
				// Keep draining so the binary never blocks on stderr.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- res{err: fmt.Errorf("monitor address never announced (stderr closed)")}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("timed out waiting for the monitor address")
	}
}

func get(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

func expectStatus(url string, want int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// readFireEvent connects to the SSE stream and waits for one fire event
// (heartbeats are skipped), which must be tagged with session s1.
func readFireEvent(url string) error {
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("%s: Content-Type %q, want text/event-stream", url, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for fire := false; sc.Scan(); {
		switch line := sc.Text(); {
		case strings.HasPrefix(line, "event: "):
			fire = line == "event: fire"
		case fire && strings.HasPrefix(line, "data: "):
			if !strings.Contains(line, `"session":"s1"`) {
				return fmt.Errorf("fire event not tagged with session s1: %s", line)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no SSE fire event within 15s (%v)", url, sc.Err())
}
