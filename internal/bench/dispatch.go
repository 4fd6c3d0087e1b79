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
	// WallNs is the best-of-three wall time of the run.
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

// dispatchReps is the per-cell repetition count; the fastest run is
// reported, the standard defense against scheduler noise.
const dispatchReps = 3

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
// run serially — this is a wall-clock measurement, so nothing else may
// share the machine with it.
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

	var rows []DispatchRow
	for _, tier := range tiers {
		row, _, err := timeCell("baseline (no tool)", tier, func() (*vm.Result, error) {
			return vm.New(prog, vm.Config{ExecMode: tier.ExecMode()}).Run()
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for _, c := range dispatchCases {
		tool, err := compileTool(c.prog)
		if err != nil {
			return nil, err
		}
		// The translated tier once more with a collector attached. Firing
		// counts, like the cycle counters, are deterministic and identical
		// across tiers, so the last observed run's total serves every row
		// of the cell.
		var col *obs.Collector
		observed, _, err := timeCell(c.label, 0, func() (*vm.Result, error) {
			col = obs.New(obs.Options{})
			return runToolCell(tool, prog, 0, col)
		})
		if err != nil {
			return nil, err
		}
		fires := col.Snapshot(backend.Janus).FiresWhere(func(obs.ProbeStats) bool { return true })
		for _, tier := range tiers {
			row, mallocs, err := timeCell(c.label, tier, func() (*vm.Result, error) {
				return runToolCell(tool, prog, tier, nil)
			})
			if err != nil {
				return nil, err
			}
			row.Fires = fires
			if fires > 0 {
				row.AllocsPerFire = float64(mallocs) / float64(fires)
			}
			if tier == 0 {
				row.ObsNsPerInst = observed.NsPerInst
			}
			rows = append(rows, row)
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

func timeCell(label string, tier backend.Ablation, run func() (*vm.Result, error)) (DispatchRow, uint64, error) {
	mode := tier.ExecMode()
	var res *vm.Result
	var ms runtime.MemStats
	best := int64(0)
	var bestMallocs uint64
	for i := 0; i < dispatchReps; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		r, err := run()
		wall := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs - before
		if err != nil {
			return DispatchRow{}, 0, fmt.Errorf("bench: %s (%s): %w", label, mode, err)
		}
		if res != nil && (res.Cycles != r.Cycles || res.Insts != r.Insts) {
			return DispatchRow{}, 0, fmt.Errorf("bench: %s (%s): nondeterministic counters", label, mode)
		}
		res = r
		if best == 0 || wall < best {
			best = wall
		}
		if i == 0 || mallocs < bestMallocs {
			bestMallocs = mallocs
		}
	}
	row := DispatchRow{
		UseCase: label,
		Mode:    mode.String(),
		Cycles:  res.Cycles,
		Insts:   res.Insts,
		WallNs:  best,
	}
	if res.Insts > 0 {
		row.NsPerInst = float64(best) / float64(res.Insts)
	}
	if best > 0 {
		row.CyclesPerSec = float64(res.Cycles) / (float64(best) / 1e9)
	}
	return row, bestMallocs, nil
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
	median := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[len(d)/2].Nanoseconds())
	}
	return median(as), median(bs)
}
