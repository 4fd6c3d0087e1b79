package fleet

import (
	"time"

	"repro/internal/cliflags"
)

// The cinnamond flag table. It lives here rather than in cmd/cinnamond
// because package main cannot be imported: cmd/cinnamon's CLI.md
// generator renders this registry into the shared document, so the
// byte-for-byte doc gate (TestCLIDocCurrent) covers both binaries.

const (
	groupDaemon    = "Daemon"
	groupScheduler = "Scheduler"
)

// CLIOpts are cinnamond's parsed flag values, in registry order.
type CLIOpts struct {
	Listen        *string
	Interval      *time.Duration
	DrainTimeout  *time.Duration
	TraceBuf      *int
	Workers       *int
	Queue         *int
	Manifest      *string
	Loop          *int
	ArtifactCache *bool
}

// CLIFlags builds a fresh cinnamond flag registry. Each call returns an
// independent set, so the daemon's main and the doc generator never
// share mutable flag state.
func CLIFlags() (*cliflags.Set, *CLIOpts) {
	reg := cliflags.New("cinnamond", groupDaemon, groupScheduler)
	o := &CLIOpts{
		Listen:        reg.String(groupDaemon, "listen", "127.0.0.1:9137", "<addr>", "serve the fleet endpoints on this address (host:port; :0 picks a port): /metrics, /series, /sessions, /trace (SSE), /healthz/live, /healthz/ready"),
		Interval:      reg.Duration(groupDaemon, "interval", time.Second, "<dur>", "per-session time-series sampling period"),
		DrainTimeout:  reg.Duration(groupDaemon, "drain-timeout", 30*time.Second, "<dur>", "graceful-drain deadline on SIGTERM/SIGINT: running sessions past it are cooperatively cancelled"),
		TraceBuf:      reg.Int(groupDaemon, "trace-buf", 256, "<n>", "per-subscriber buffer depth on the multiplexed SSE /trace stream (overflow events are dropped and counted)"),
		Workers:       reg.Int(groupScheduler, "workers", 4, "<n>", "bounded worker pool size: how many sessions run concurrently"),
		Queue:         reg.Int(groupScheduler, "queue", 256, "<n>", "admitted-session queue bound; submissions beyond it are rejected"),
		Manifest:      reg.String(groupScheduler, "manifest", "", "<file>", "submit this JSON job manifest at boot (an array of job specs, or {\"sessions\":[...]})"),
		Loop:          reg.Int(groupScheduler, "loop", 50000, "<n>", "default victim loop count for jobs that do not set one"),
		ArtifactCache: reg.Bool(groupScheduler, "artifact-cache", true, "share compiled tools, built victims and instrumentation-build templates across sessions (=false rebuilds per session; restart attempts still reuse their own build)"),
	}
	return reg, o
}
