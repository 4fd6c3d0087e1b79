package bench

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Governor experiment: what a live overhead budget does to action-heavy
// tools. Each use case runs ungoverned and under a 5% and a 1% budget;
// the rows report the run-wide attributed probe overhead, the
// steady-state (last governor window) overhead, and what the governor
// did to get there — paces, downsample/eject decisions, surviving
// strides. Cycle counters are deterministic, so those columns are
// exactly reproducible; the host-time column is the median of
// round-robin repetitions of every cell (timeRoundRobin).

// GovernorRow is one (use case, budget) cell. The JSON form is what
// `experiments -exp=governor -json` writes to BENCH_governor.json.
type GovernorRow struct {
	UseCase string `json:"use_case"`
	// Budget is the configured overhead budget ("off", "5%", "1%").
	Budget string `json:"budget"`
	// Cycles and Insts are the deterministic run counters.
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	// ProbeCycles is the instrumentation cost attributed to probes
	// (fires plus sampling-gate skips).
	ProbeCycles uint64 `json:"probe_cycles"`
	// Fires and Skips total probe firings and sampling-gate skips.
	Fires uint64 `json:"fires"`
	Skips uint64 `json:"skips,omitempty"`
	// Overhead is ProbeCycles / Cycles over the whole run (including the
	// ungoverned warm-up before the governor converges).
	Overhead float64 `json:"overhead"`
	// LastWindow is the attributed overhead of the final governor window
	// — the steady state the budget is judged against (0 when off).
	LastWindow float64 `json:"last_window_overhead,omitempty"`
	// Paces, Decisions and Ejected summarize governor activity.
	Paces     uint64 `json:"paces,omitempty"`
	Decisions int    `json:"decisions,omitempty"`
	Ejected   int    `json:"ejected,omitempty"`
	// NsPerInst is the host time of the whole session per application
	// instruction: the median of governorReps round-robin repetitions.
	NsPerInst float64 `json:"ns_per_inst"`
}

// governorReps is how many round-robin repetitions time each cell.
const governorReps = 25

// governorCases are the action-heavy tools worth governing: the
// per-instruction counters fire on every matched instruction, the
// opcode-mix profiler on every instruction of four opcode classes.
var governorCases = []struct{ label, prog string }{
	{"Inst count", "instcount_basic"},
	{"Loop coverage", "loopcoverage"},
	{"Opcode mix", "opcodemix"},
}

var governorBudgets = []string{"off", "5%", "1%"}

// Governor measures each case under each budget on the named
// benchmark. Cells run serially, round-robin: the host-time column is a
// wall-clock measurement.
func Governor(benchmark string, scale float64) ([]GovernorRow, error) {
	spec, ok := workload.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	prog, err := BuildBenchmark(spec, scale)
	if err != nil {
		return nil, err
	}
	rows := make([]GovernorRow, 0, len(governorCases)*len(governorBudgets))
	var cells []*timedRun
	for _, c := range governorCases {
		tool, err := compileTool(c.prog)
		if err != nil {
			return nil, err
		}
		for _, budget := range governorBudgets {
			var frac float64
			if budget != "off" {
				if frac, err = governor.ParseBudget(budget); err != nil {
					return nil, err
				}
			}
			// rows has its final capacity, so row stays valid.
			rows = append(rows, GovernorRow{UseCase: c.label, Budget: budget})
			row := &rows[len(rows)-1]
			cells = append(cells, &timedRun{
				label: fmt.Sprintf("%s (%s)", c.label, budget),
				run:   func() (*vm.Result, error) { return governorRun(tool, prog, frac, row) },
			})
		}
	}
	if err := timeRoundRobin(governorReps, cells); err != nil {
		return nil, err
	}
	for i, c := range cells {
		if rows[i].Insts > 0 {
			rows[i].NsPerInst = float64(c.median()) / float64(rows[i].Insts)
		}
	}
	return rows, nil
}

// governorRun runs one session of the cell, governed under budget
// (0: off), and writes its deterministic columns into row.
func governorRun(tool *engine.CompiledTool, prog *cfg.Program, budget float64, row *GovernorRow) (*vm.Result, error) {
	col := obs.New(obs.Options{})
	opts := backend.Options{Out: io.Discard, Obs: col}
	var gov *governor.Governor
	if budget > 0 {
		var err error
		if gov, err = governor.New(governor.Config{Budget: budget, Collector: col}); err != nil {
			return nil, err
		}
		opts.Adaptive = true
		opts.OnMachine = gov.Attach
	}
	res, err := backend.Run(tool, prog, backend.Janus, opts)
	if err != nil {
		return nil, err
	}
	s := col.Snapshot(backend.Janus)
	row.Cycles, row.Insts = res.Cycles, res.Insts
	row.ProbeCycles, row.Fires, row.Skips = s.ProbeCycles, s.TotalFires, s.TotalSkips
	if res.Cycles > 0 {
		row.Overhead = float64(s.ProbeCycles) / float64(res.Cycles)
	}
	if gov != nil {
		sum := gov.Summary()
		row.LastWindow = sum.LastOverhead
		row.Paces = sum.Paces
		row.Decisions = sum.Decisions
		row.Ejected = sum.Ejected
	}
	return res, nil
}

// FormatGovernor renders the budget comparison.
func FormatGovernor(w io.Writer, rows []GovernorRow) {
	fmt.Fprintf(w, "%-16s %-8s %12s %12s %12s %10s %10s %7s %10s %8s %8s\n",
		"Use case", "budget", "cycles", "fires", "skips", "overhead", "lastwin", "paces", "decisions", "ejected", "ns/inst")
	for _, r := range rows {
		last := "-"
		if r.Budget != "off" {
			last = fmt.Sprintf("%.2f%%", r.LastWindow*100)
		}
		fmt.Fprintf(w, "%-16s %-8s %12d %12d %12d %9.2f%% %10s %7d %10d %8d %8.2f\n",
			r.UseCase, r.Budget, r.Cycles, r.Fires, r.Skips, r.Overhead*100, last,
			r.Paces, r.Decisions, r.Ejected, r.NsPerInst)
	}
}
