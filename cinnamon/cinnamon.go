// Package cinnamon is the public API of this reproduction of
// "Cinnamon: A Domain-Specific Language for Binary Profiling and
// Monitoring" (CGO 2021).
//
// A Cinnamon program is compiled once and can then be run against a
// loaded binary under any of the three instrumentation-framework
// backends, or lowered to the framework-specific C/C++ sources the
// original compiler emits:
//
//	tool, err := cinnamon.Compile(src)
//	target, err := cinnamon.LoadAssembly(appSource)
//	report, err := tool.Run(target, cinnamon.Pin, cinnamon.RunOptions{})
//	fmt.Print(report.ToolOutput)
//
// The backends are clean-room Go substrates mirroring the programming
// models of the frameworks the paper targets:
//
//	cinnamon.Pin      — dynamic JIT instrumentation (sees shared libraries;
//	                    no notion of loops)
//	cinnamon.Dyninst  — static binary rewriting (refuses binaries with
//	                    unrecoverable control flow)
//	cinnamon.Janus    — hybrid: static analyzer emitting rewrite rules,
//	                    consumed by a dynamic instrumenter
package cinnamon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/backend"
	"repro/internal/core/codegen"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/monitor"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Backend names.
const (
	Pin     = backend.Pin
	Dyninst = backend.Dyninst
	Janus   = backend.Janus
)

// Backends returns the supported backend names.
func Backends() []string { return backend.Backends() }

// Tool is a compiled Cinnamon program.
type Tool struct {
	compiled *engine.CompiledTool
}

// Compile parses and type-checks Cinnamon source. Byte-identical
// sources share one compiled form through the process-wide artifact
// cache (compiled tools are immutable), which in turn lets their runs
// share instrumentation-build templates.
func Compile(src string) (*Tool, error) {
	c, _, err := artifacts.Shared().Tool(src)
	if err != nil {
		return nil, err
	}
	return &Tool{compiled: c}, nil
}

// Source returns the tool's Cinnamon source.
func (t *Tool) Source() string { return t.compiled.Src }

// GenerateCode emits the framework-specific C/C++ sources the Cinnamon
// compiler produces for the named backend, as file name → content.
func (t *Tool) GenerateCode(backendName string) (map[string]string, error) {
	return codegen.Generate(t.compiled, backendName)
}

// Target is a loaded binary (executable plus shared libraries) with its
// recovered control flow. A Target may be instrumented and run any number
// of times.
type Target struct {
	// Prog is the control-flow view of the loaded program.
	Prog *cfg.Program
}

// LoadModules loads assembled modules into an address space with the
// standard runtime (malloc/free/print/exit) and recovers control flow.
func LoadModules(mods []*obj.Module) (*Target, error) {
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		return nil, err
	}
	prog, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	return &Target{Prog: prog}, nil
}

// LoadAssembly assembles one or more assembly sources (the first or the
// one marked .executable is the main program) and loads them.
func LoadAssembly(srcs ...string) (*Target, error) {
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	return LoadModules(mods)
}

// RunOptions configures a tool run.
type RunOptions struct {
	// ToolOut receives the tool's print() output as it is produced; if
	// nil the output is captured in Report.ToolOutput instead.
	ToolOut io.Writer
	// AppOut receives the application's own output (discarded if nil).
	AppOut io.Writer
	// Fuel bounds the number of application instructions (0 = default).
	Fuel uint64
	// PinLoopDetection enables the extension the paper's Section VI-E
	// suggests: loop detection integrated into the Pin backend, making
	// loop commands mappable to Pin transparently.
	PinLoopDetection bool
	// Stats enables the observability layer for the run: Report.Stats is
	// populated with per-probe firing counters, cycle attribution and
	// instrumentation-time statistics. Collection never perturbs the
	// deterministic cost model — Cycles/Insts/ToolOutput are identical
	// with Stats on or off.
	Stats bool
	// Trace, when positive, additionally records the last Trace probe
	// firings in a bounded ring buffer (Report.Stats.Trace). Trace > 0
	// implies Stats.
	Trace int
	// MonitorAddr, when non-empty, serves live monitoring for the run on
	// this TCP address (host:port; port 0 picks a free one). The run is
	// served as the one session "s1" of a fleet, by the same server the
	// cinnamond daemon uses: /metrics Prometheus scrapes, /series and
	// /sessions JSON, /sessions/s1/stats, /sessions/s1/governor, an SSE
	// /trace stream and /healthz. Implies Stats; the server starts
	// before the run and shuts down after the final snapshot is taken,
	// so a last scrape reconciles exactly with Report.Stats. See
	// internal/monitor and docs/OBSERVABILITY.md.
	MonitorAddr string
	// Interval is the monitor's time-series sampling period (default 1s;
	// only meaningful with MonitorAddr).
	Interval time.Duration
	// OnMonitor, if set, is called with the monitor's bound address once
	// it is serving (before the run starts). Useful with port 0.
	OnMonitor func(addr string)
	// VMMode selects the machine's execution tier: "translated" (or
	// empty, the default) runs cached block programs with fused probe
	// schedules; "interpreted" runs the reference per-instruction loop.
	// The tiers are bit-identical in every observable — cycles, output,
	// attribution — so this only affects wall-clock speed.
	VMMode string
	// VMNoInline disables the translated tier's action-inlining layer
	// (specialized probe thunks, register-promoted counters, probe+op
	// superinstructions). Bit-identical either way; escape hatch only.
	VMNoInline bool
	// NoIROpt disables the placement-IR optimization passes
	// (where-clause hoisting, counter promotion, redundant-probe
	// coalescing) that run over the shared rule table before backend
	// lowering. Bit-identical either way; escape hatch only.
	NoIROpt bool
	// Budget, when non-empty, attaches the live overhead governor: a
	// maximum fraction of machine cycles the run may spend in probes,
	// as "5%" or "0.05". The governor watches live cycle attribution
	// and downsamples — ultimately ejects — the most expensive probes
	// to keep attributed overhead under the budget; its replayable
	// decision log lands in Report.Stats.Governor (and on the monitor's
	// /sessions/s1/governor endpoint when MonitorAddr is set). Implies
	// Stats. See docs/ADAPTIVE.md.
	Budget string
	// GovernorWindow overrides the governor's evaluation cadence in
	// machine cycle units (0 = governor.DefaultWindow; only meaningful
	// with Budget).
	GovernorWindow uint64
	// NoArtifactCache disables the process-wide artifact cache for this
	// run. By default repeated runs of the same tool against the same
	// target reuse the recorded instrumentation build (rebinding all
	// per-run state), which is observably identical to rebuilding —
	// cycles, output and attribution are bit-equal. Escape hatch only.
	NoArtifactCache bool
}

// Stats is the observability report of a run: per-probe firing counters
// and cycle attribution, instrumentation-time build statistics, and the
// optional firing trace. See internal/obs for the schema and
// docs/OBSERVABILITY.md for how to read it.
type Stats = obs.Stats

// Report summarizes an instrumented run.
type Report struct {
	// Backend is the backend the tool ran under.
	Backend string
	// ToolOutput is the tool's captured print() output (empty when
	// RunOptions.ToolOut was set).
	ToolOutput string
	// Cycles is the deterministic cost of the run in cycle units
	// (application work plus instrumentation overhead).
	Cycles uint64
	// Insts is the number of application instructions executed.
	Insts uint64
	// ExitCode is the application's exit code.
	ExitCode uint64
	// Stats holds the observability report (nil unless RunOptions.Stats,
	// RunOptions.Trace or RunOptions.MonitorAddr enabled collection).
	Stats *Stats
}

// Run instruments the target with the tool under the named backend and
// executes it.
func (t *Tool) Run(target *Target, backendName string, opts RunOptions) (rep *Report, err error) {
	var buf bytes.Buffer
	out := opts.ToolOut
	captured := false
	if out == nil {
		out, captured = &buf, true
	}
	mode, err := vm.ParseExecMode(opts.VMMode)
	if err != nil {
		return nil, fmt.Errorf("cinnamon: %w", err)
	}
	frac, err := governor.ParseBudget(opts.Budget)
	if err != nil {
		return nil, fmt.Errorf("cinnamon: %w", err)
	}
	var col *obs.Collector
	if opts.Stats || opts.Trace > 0 || opts.MonitorAddr != "" || frac > 0 {
		col = obs.New(obs.Options{TraceCap: opts.Trace})
	}
	var gov *governor.Governor
	if frac > 0 {
		gov, err = governor.New(governor.Config{Budget: frac, Collector: col, Window: opts.GovernorWindow})
		if err != nil {
			return nil, fmt.Errorf("cinnamon: %w", err)
		}
	}
	if opts.MonitorAddr != "" {
		settle, serr := serve(opts, target, backendName, col, gov)
		if serr != nil {
			return nil, fmt.Errorf("cinnamon: %w", serr)
		}
		// Settle with Run's own results, after the final snapshot.
		defer func() { settle(rep, err) }()
	}
	bopts := backend.Options{
		Out:              out,
		Fuel:             opts.Fuel,
		AppOut:           opts.AppOut,
		PinLoopDetection: opts.PinLoopDetection,
		Obs:              col,
		VMMode:           mode,
		VMNoInline:       opts.VMNoInline,
		NoIROpt:          opts.NoIROpt,
	}
	if !opts.NoArtifactCache {
		bopts.Artifacts = artifacts.Shared()
	}
	if gov != nil {
		bopts.Adaptive = true
		bopts.OnMachine = gov.Attach
	}
	res, err := backend.Run(t.compiled, target.Prog, backendName, bopts)
	if err != nil {
		return nil, fmt.Errorf("cinnamon: run on %s: %w", backendName, err)
	}
	rep = &Report{
		Backend:  backendName,
		Cycles:   res.Cycles,
		Insts:    res.Insts,
		ExitCode: res.ExitCode,
	}
	if col != nil {
		rep.Stats = col.Snapshot(backendName)
		if gov != nil {
			rep.Stats.Governor = gov.State()
		}
	}
	if captured {
		rep.ToolOutput = buf.String()
	}
	return rep, nil
}

// serve registers a monitored run as session s1 of a fleet of one and
// serves it with the fleet server, announcing the bound address through
// opts.OnMonitor. The victim label is the executable module's name. The
// returned settle finishes the session with the run's outcome and shuts
// the server down; call it after the final snapshot, so a last scrape
// reconciles exactly with Report.Stats.
func serve(opts RunOptions, target *Target, backendName string, col *obs.Collector, gov *governor.Governor) (settle func(*Report, error), err error) {
	victim := target.Prog.Obj.Executable().Name
	if monitor.ValidateLabelValue("victim", victim) != nil {
		victim = "a.out" // the assembler's name for an unnamed module
	}
	labels := monitor.SessionLabels{Session: "s1", Tool: "inline", Victim: victim, Backend: backendName}
	fleet := monitor.NewFleet()
	srv := monitor.NewFleetServer(monitor.FleetConfig{Fleet: fleet})
	addr, err := srv.Start(opts.MonitorAddr)
	if err != nil {
		return nil, err
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	series := obs.NewSeries(col, backendName, obs.SeriesOptions{Interval: opts.Interval})
	sess, err := fleet.Add(labels, col, series)
	if err != nil {
		shutdown()
		return nil, err
	}
	sess.SetGovernor(gov)
	sess.Start()
	if opts.OnMonitor != nil {
		opts.OnMonitor(addr)
	}
	return func(rep *Report, err error) {
		if rep != nil {
			sess.Finish(monitor.SessionDone, rep.Cycles, rep.Insts, "")
		} else {
			sess.Finish(monitor.SessionFailed, 0, 0, fmt.Sprint(err))
		}
		shutdown()
	}, nil
}

// BaselineRun executes the target without any instrumentation and reports
// its cost — the uninstrumented baseline for overhead measurements.
func BaselineRun(target *Target, opts RunOptions) (*Report, error) {
	mode, err := vm.ParseExecMode(opts.VMMode)
	if err != nil {
		return nil, fmt.Errorf("cinnamon: %w", err)
	}
	machine := vm.New(target.Prog, vm.Config{Fuel: opts.Fuel, AppOut: opts.AppOut, ExecMode: mode})
	res, err := machine.Run()
	if err != nil {
		return nil, err
	}
	return &Report{Backend: "none", Cycles: res.Cycles, Insts: res.Insts, ExitCode: res.ExitCode}, nil
}
