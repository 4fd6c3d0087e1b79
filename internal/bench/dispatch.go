package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/cfg"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Dispatch-tier trajectory: wall-clock throughput of the machine's two
// execution tiers (translated block programs vs the per-instruction
// reference loop) across the paper's five use cases plus a probe-free
// baseline. Cycle-unit results are identical across tiers by
// construction — the conformance oracle enforces it — so the rows
// report the one thing that differs: host nanoseconds per executed
// application instruction.

// DispatchRow is one (use case, VM tier) cell. The JSON form is what
// `experiments -exp=dispatch -json` writes to BENCH_dispatch.json.
type DispatchRow struct {
	UseCase string `json:"use_case"`
	// Mode is the VM execution tier ("translated" or "interpreted").
	Mode string `json:"vm_mode"`
	// Cycles and Insts are the deterministic run counters (identical
	// across tiers for the same cell).
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	// WallNs is the median wall time of the cell's round-robin
	// repetitions (see timeRoundRobin).
	WallNs int64 `json:"wall_ns"`
	// NsPerInst is WallNs per executed application instruction.
	NsPerInst float64 `json:"ns_per_inst"`
	// CyclesPerSec is the cycle-unit throughput at that wall time.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Fires is the total number of probe firings in the run (identical
	// across tiers, like the cycle counters; 0 for the probe-free
	// baseline). Counted on the observed runs behind ObsNsPerInst, so
	// the rows' own timed runs carry no collection overhead.
	Fires uint64 `json:"fires"`
	// ObsNsPerInst is NsPerInst for the same cell run with a collector
	// attached, as every monitored session runs (translated tool rows
	// only; 0 elsewhere).
	ObsNsPerInst float64 `json:"obs_ns_per_inst,omitempty"`
	// AllocsPerFire is the fewest heap allocations any timed repetition
	// performed, divided by Fires (0 when Fires is 0) — the steady-state
	// allocation cost of one probe dispatch.
	AllocsPerFire float64 `json:"allocs_per_fire"`
}

// dispatchReps is how many round-robin repetitions time each cell.
const dispatchReps = 15

// dispatchCases are the tools measured by Dispatch: the five Table I
// use cases, the opcode-mix profiler — an action-heavy workload (four
// per-instruction counter probes over disjoint opcode classes) that
// exercises the counters the translated block loop bumps in place — and
// Figure 5b's per-block instruction count, the tool behind the paper's
// Figure 13.
var dispatchCases = func() []struct{ label, prog string } {
	cases := make([]struct{ label, prog string }, 0, len(table1Cases)+2)
	for _, c := range table1Cases {
		cases = append(cases, struct{ label, prog string }{c.label, c.prog})
	}
	return append(cases,
		struct{ label, prog string }{"Opcode mix", progs.OpcodeMix},
		struct{ label, prog string }{"Inst count (Fig. 5b)", progs.InstCountBB})
}()

// Dispatch measures both VM tiers on the named benchmark: a probe-free
// baseline (the headline block-translation case: no probes, pure
// dispatch) and the five Table I use cases under the Janus backend
// (executable-only, supports every trigger kind including loops). Cells
// run serially, round-robin (timeRoundRobin) — this is a wall-clock
// measurement, so nothing else may share the machine with it.
func Dispatch(benchmark string, scale float64) ([]DispatchRow, error) {
	spec, ok := workload.ByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
	prog, err := BuildBenchmark(spec, scale)
	if err != nil {
		return nil, err
	}
	// The interpreted tier is the translate ablation.
	tiers := []backend.Ablation{0, backend.AblateTranslate}

	// Each row times its own cell; a translated tool row also reads the
	// cell of the same session with a collector attached, as every
	// monitored session runs.
	var rows []DispatchRow
	var cells, observed []*timedRun
	var all []*timedRun
	add := func(label string, tier backend.Ablation, run func() (*vm.Result, error)) *timedRun {
		c := &timedRun{label: fmt.Sprintf("%s (%s)", label, tier.ExecMode()), run: run}
		all = append(all, c)
		return c
	}
	for _, tier := range tiers {
		rows = append(rows, DispatchRow{UseCase: "baseline (no tool)", Mode: tier.ExecMode().String()})
		cells = append(cells, add("baseline (no tool)", tier, func() (*vm.Result, error) {
			return vm.New(prog, vm.Config{ExecMode: tier.ExecMode()}).Run()
		}))
		observed = append(observed, nil)
	}
	for _, c := range dispatchCases {
		tool, err := compileTool(c.prog)
		if err != nil {
			return nil, err
		}
		// Firing counts, like the cycle counters, are deterministic and
		// identical across tiers and repetitions: one observed run
		// counts them for every row of the case.
		col := obs.New(obs.Options{})
		if _, err := runToolCell(tool, prog, 0, col); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.label, err)
		}
		fires := col.Snapshot(backend.Janus).FiresWhere(func(obs.ProbeStats) bool { return true })
		obsCell := add(c.label+" observed", 0, func() (*vm.Result, error) {
			return runToolCell(tool, prog, 0, obs.New(obs.Options{}))
		})
		for _, tier := range tiers {
			rows = append(rows, DispatchRow{UseCase: c.label, Mode: tier.ExecMode().String(), Fires: fires})
			cells = append(cells, add(c.label, tier, func() (*vm.Result, error) {
				return runToolCell(tool, prog, tier, nil)
			}))
			if tier == 0 {
				observed = append(observed, obsCell)
			} else {
				observed = append(observed, nil)
			}
		}
	}
	if err := timeRoundRobin(dispatchReps, all); err != nil {
		return nil, err
	}
	for i := range rows {
		r, c := &rows[i], cells[i]
		wall := c.median()
		r.Cycles, r.Insts, r.WallNs = c.res.Cycles, c.res.Insts, wall
		if r.Insts > 0 {
			r.NsPerInst = float64(wall) / float64(r.Insts)
		}
		if wall > 0 {
			r.CyclesPerSec = float64(r.Cycles) / (float64(wall) / 1e9)
		}
		if r.Fires > 0 {
			r.AllocsPerFire = float64(c.mallocs) / float64(r.Fires)
		}
		if o := observed[i]; o != nil && r.Insts > 0 {
			r.ObsNsPerInst = float64(o.median()) / float64(r.Insts)
		}
	}
	return rows, nil
}

func runToolCell(tool *engine.CompiledTool, prog *cfg.Program, tier backend.Ablation, col *obs.Collector) (*vm.Result, error) {
	return backend.Run(tool, prog, backend.Janus, backend.Options{
		Out:    io.Discard,
		Ablate: tier,
		Obs:    col,
	})
}

// timedRun is one cell of a wall-clock table: run executes the cell
// once, and timeRoundRobin records the rest.
type timedRun struct {
	label string
	run   func() (*vm.Result, error)
	// res is a repetition's result; every repetition's deterministic
	// counters must agree.
	res   *vm.Result
	walls []time.Duration
	// mallocs is the fewest heap allocations any repetition made.
	mallocs uint64
}

// timeRoundRobin runs every cell reps times, round-robin — each round
// runs every cell once, in order — so drift in the host's speed during
// the measurement falls on every cell alike, and a cell's time is the
// median of its repetitions (timedRun.median), which one slow
// repetition does not move.
func timeRoundRobin(reps int, cells []*timedRun) error {
	var ms runtime.MemStats
	for rep := range reps {
		for _, c := range cells {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			r, err := c.run()
			wall := time.Since(start)
			runtime.ReadMemStats(&ms)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", c.label, err)
			}
			if c.res != nil && (c.res.Cycles != r.Cycles || c.res.Insts != r.Insts) {
				return fmt.Errorf("bench: %s: nondeterministic counters", c.label)
			}
			c.res = r
			c.walls = append(c.walls, wall)
			if n := ms.Mallocs - before; rep == 0 || n < c.mallocs {
				c.mallocs = n
			}
		}
	}
	return nil
}

// median returns the median wall time of the cell's repetitions, in ns.
func (c *timedRun) median() int64 {
	return int64(median(c.walls))
}

// median returns the median of d in ns, sorting d.
func median(d []time.Duration) float64 {
	slices.Sort(d)
	return float64(d[len(d)/2].Nanoseconds())
}

// FormatDispatch renders the tier comparison, pairing each use case's
// translated and interpreted rows with the resulting speedup, and each
// translated tool row with its observed ns/inst.
func FormatDispatch(w io.Writer, rows []DispatchRow) {
	fmt.Fprintf(w, "%-20s %-12s %14s %12s %12s %12s %12s %12s %9s\n",
		"Use case", "VM tier", "cycles", "insts", "fires", "ns/inst", "obs ns/inst", "allocs/fire", "speedup")
	byKey := map[string]DispatchRow{}
	for _, r := range rows {
		byKey[r.UseCase+"/"+r.Mode] = r
	}
	for _, r := range rows {
		speedup := "-"
		if r.Mode == vm.ExecTranslated.String() {
			if o, ok := byKey[r.UseCase+"/"+vm.ExecInterpreted.String()]; ok && r.WallNs > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(o.WallNs)/float64(r.WallNs))
			}
		}
		obsNs := "-"
		if r.ObsNsPerInst > 0 {
			obsNs = fmt.Sprintf("%.2f", r.ObsNsPerInst)
		}
		fmt.Fprintf(w, "%-20s %-12s %14d %12d %12d %12.2f %12s %12.3f %9s\n",
			r.UseCase, r.Mode, r.Cycles, r.Insts, r.Fires, r.NsPerInst, obsNs, r.AllocsPerFire, speedup)
	}
}

// MedianTimes is the method of the repository's perf gates: it times
// pairs of alternating single runs of a and b, swapping which goes first
// every pair so neither side always runs on a warmer cache, and returns
// the median ns per run of each. Medians of many single runs steady a
// ratio that a best-of-N measurement cannot on a shared host.
func MedianTimes(pairs int, a, b func() time.Duration) (am, bm float64) {
	as, bs := make([]time.Duration, pairs), make([]time.Duration, pairs)
	for i := range pairs {
		if i%2 == 0 {
			as[i], bs[i] = a(), b()
		} else {
			bs[i], as[i] = b(), a()
		}
	}
	return median(as), median(bs)
}
