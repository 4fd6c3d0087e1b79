package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/fleet"
)

// The flag registry (see internal/cliflags): every flag is declared
// through the typed helpers, which record (group, name, argument,
// default, help) in declaration order. The grouped -help output and
// docs/CLI.md are both rendered from the table; the document also
// carries the cinnamond daemon's flag group (fleet.CLIFlags), so one
// gate covers both commands.

const (
	groupExecution     = "Execution"
	groupObservability = "Observability"
	groupMonitoring    = "Monitoring"
	groupGovernor      = "Governor"
)

// reg is the driver's flag registry. Flags live on a dedicated set (not
// flag.CommandLine) and are declared as package variables, so the
// registry is populated for tests without parsing anything.
var reg = cliflags.New("cinnamon", groupExecution, groupObservability, groupMonitoring, groupGovernor)

// cli is the driver's flag set.
var cli = reg.FS

// The flags, grouped. Declaration order is presentation order within
// each group (in -help and docs/CLI.md).
var (
	backendName = reg.String(groupExecution, "backend", "pin", "<name>", "backend: pin, dyninst, janus")
	target      = reg.String(groupExecution, "target", "", "<spec>", "victim:<name>, suite:<name>, or an assembly file path")
	emit        = reg.String(groupExecution, "emit", "", "<name>", "emit generated C/C++ for this backend instead of running")
	scale       = reg.Float64(groupExecution, "scale", 0.2, "<f>", "workload scale for suite targets")
	loop        = reg.Int(groupExecution, "loop", 0, "<n>", "loop a victim target this many times (long-running session; default 500000 with -listen)")
	list        = reg.Bool(groupExecution, "list-programs", false, "list built-in case-study programs and exit")
	pinLoops    = reg.Bool(groupExecution, "pin-loops", false, "enable the Pin loop-detection extension (paper section VI-E)")
	ablate      = reg.String(groupExecution, "ablate", "", "<layers>", "switch bit-identical speed layers off, comma-separated, to measure or bisect: compile (closure-compiled actions), translate (translated blocks), inline (action inlining), ir-opt (placement-IR passes), cache (artifact-cache templates)")

	stats     = reg.Bool(groupObservability, "stats", false, "print the observability report (per-probe firing and cycle attribution) to stderr")
	statsJSON = reg.Bool(groupObservability, "stats-json", false, "print the observability report as JSON to stdout")
	trace     = reg.Int(groupObservability, "trace", 0, "<n>", "record the last N probe firings in the report's trace ring (implies -stats)")

	listen   = reg.String(groupMonitoring, "listen", "", "<addr>", "serve live monitoring on this address (host:port; :0 picks a port) as session s1 of a fleet of one, with cinnamond's endpoints: /metrics, /series, /sessions, /sessions/s1/stats, /sessions/s1/governor, /trace (SSE), /healthz")
	interval = reg.Duration(groupMonitoring, "interval", time.Second, "<dur>", "monitor time-series sampling period (with -listen)")

	budget    = reg.String(groupGovernor, "budget", "", "<frac>", "attach the overhead governor with this probe-overhead budget (\"5%\" or \"0.05\"); it downsamples and ejects the most expensive probes to stay under it (implies -stats; see docs/ADAPTIVE.md)")
	govWindow = reg.Uint64(groupGovernor, "governor-window", 0, "<cycles>", "governor evaluation cadence in machine cycle units (default: the governor's built-in window; with -budget)")
)

// usage prints the grouped flag reference (the custom flag.Usage).
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: cinnamon [flags] <tool.cin | @case-study>")
	reg.Usage(w)
}

// renderCLIMD renders docs/CLI.md from the flag registries of both
// commands — this driver's groups and the cinnamond daemon's (declared
// in internal/fleet so both binaries and this generator see one table).
// The committed document must match byte for byte (TestCLIDocCurrent).
func renderCLIMD() string {
	var b strings.Builder
	b.WriteString(`<!-- Generated from the flag tables in cmd/cinnamon/flags.go and
     internal/fleet/flags.go. Do not edit by hand: run
     go test ./cmd/cinnamon -update-cli-doc. -->

# cinnamon CLI reference

` + "```" + `
cinnamon [flags] <tool.cin | @case-study>
` + "```" + `

Compiles a Cinnamon program and runs it on a binary under one of the
three backends, or emits the framework-specific C/C++ sources
(` + "`-emit`" + `). Tool arguments starting with ` + "`@`" + ` name a built-in case
study (` + "`-list-programs`" + ` enumerates them).

Targets (` + "`-target`" + `): ` + "`victim:<name>`" + ` (built-in monitoring victims),
` + "`suite:<name>`" + ` (synthetic SPEC CPU 2017 benchmark), or a path to an
assembly file.
`)
	reg.Markdown(&b)
	b.WriteString(`
## Examples

` + "```sh" + `
cinnamon -backend=pin -target=victim:uaf_bug @useafterfree
cinnamon -backend=janus -target=suite:mcf -scale=0.5 tool.cin
cinnamon -emit=dyninst tool.cin
cinnamon -backend=janus -target=suite:mcf -stats -budget 5% @instcount_basic
cinnamon -backend=pin -target=victim:uaf_bug -listen :9090 @useafterfree
` + "```" + `

# cinnamond daemon reference

` + "```" + `
cinnamond [flags]
` + "```" + `

Long-lived fleet-monitoring daemon: schedules concurrent victim×tool
sessions over a bounded worker pool and serves the aggregated fleet
view — per-session-labelled ` + "`/metrics`" + `, merged ` + "`/series`" + `, lifecycle
` + "`/sessions`" + ` (GET lists, POST submits a job), a multiplexed SSE
` + "`/trace`" + `, and split ` + "`/healthz/live`" + ` + ` + "`/healthz/ready`" + ` probes.
SIGTERM drains gracefully: admission stops, running sessions finish or
are cancelled at the drain deadline, then the listener closes. See
[FLEET.md](FLEET.md).
`)
	dreg, _ := fleet.CLIFlags()
	dreg.Markdown(&b)
	b.WriteString(`
## Examples

` + "```sh" + `
cinnamond -listen 127.0.0.1:9137 -workers 8
cinnamond -manifest fleet.json -workers 32 -drain-timeout 10s
curl -s -X POST localhost:9137/sessions -d '{"tool":"instcount_basic","victim":"spin","backend":"janus","loop":200000}'
curl -s localhost:9137/metrics | grep cinnamon_fleet_fires_total
` + "```" + `

See [ADAPTIVE.md](ADAPTIVE.md) for sampling probes and the overhead
governor, [OBSERVABILITY.md](OBSERVABILITY.md) for the stats/monitoring
endpoints, [FLEET.md](FLEET.md) for the fleet daemon, and
[LANGUAGE.md](LANGUAGE.md) for the Cinnamon language.
`)
	return b.String()
}
