package conformance

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/ast"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Cell identifies one run configuration in the differential matrix: a
// backend (Pin optionally with the loop-detection extension), optionally
// under the overhead governor, with a set of bit-identical speed layers
// switched off.
type Cell struct {
	Backend       string
	LoopDetection bool
	// Governed runs the cell on an adaptive machine under a governor
	// with a fixed budget and window (governedBudget, governedWindow).
	Governed bool
	Ablate   backend.Ablation
}

// The governed column's governor: a budget and a window small enough
// that generated victims, which run a few thousand instructions, see
// many pace points and decisions.
const (
	governedBudget = 0.01
	governedWindow = 500
)

func (c Cell) String() string {
	s := c.Backend
	if c.LoopDetection {
		s += "+loopdet"
	}
	if c.Governed {
		s += "+governed"
	}
	if c.Ablate != 0 {
		s += "/ablate=" + c.Ablate.String()
	}
	return s
}

// RunResult is everything observable about one cell's run: the error (if
// the backend refused or failed), the tool's print output, the machine
// counters, per-probe fire and skip counts keyed by the backend-stable
// action label from the obs layer, and a governed cell's decision log.
type RunResult struct {
	Cell       Cell
	Err        string
	Output     string
	Cycles     uint64
	Insts      uint64
	ExitCode   uint64
	Fires      map[string]uint64
	Skips      map[string]uint64
	Decisions  []governor.Decision
	TotalFires uint64
	// UntrackedFires and UntrackedSkips count firings and sampling
	// skips that reached no attribution row (see ClassUntracked).
	UntrackedFires, UntrackedSkips uint64
	// CountersPromoted is the run's BuildStats.CountersPromoted: how
	// many placements ran as promoted counters. Not an observable the
	// oracle compares (it is 0 with the passes off).
	CountersPromoted int
}

// Traits are the structural properties of a (program, victim) pair the
// oracle conditions its legal-divergence rules on. They are derived from
// the compiled tool and the loaded binary, never trusted from metadata,
// so corpus replays classify exactly like fresh generations.
type Traits struct {
	// MultiModule: the victim loads more than one module, so Pin (which
	// instruments shared libraries) legally observes more events than
	// the executable-only backends.
	MultiModule bool
	// Unrecoverable: control-flow recovery of the executable is
	// incomplete, so Dyninst legally refuses the binary.
	Unrecoverable bool
	// UsesLoops: the tool has a loop command, so plain Pin legally
	// refuses the program (no notion of loops).
	UsesLoops bool
}

// Divergence classes. The legal ones encode the paper's Figure 12
// footnotes; everything else is a conformance failure.
const (
	// ClassAblation: a cell with speed layers switched off disagrees
	// with the same backend's default cell. Never legal — every layer
	// must be invisible in every observable.
	ClassAblation = "ablation-mismatch"
	// ClassRef: the reference backend (Janus) itself failed.
	ClassRef = "reference-failed"
	// ClassPinLoops: plain Pin refused a loop command. Legal.
	ClassPinLoops = "pin-loop-skip"
	// ClassPinLibs: Pin observed more than the executable-only backends
	// on a multi-module victim. Legal while fire counts dominate the
	// reference and the machine counters agree.
	ClassPinLibs = "pin-shared-libs"
	// ClassDyninstCFG: Dyninst refused a binary with unrecoverable
	// control flow. Legal.
	ClassDyninstCFG = "dyninst-cfg-skip"
	// ClassBackend: backends disagree outside every legal rule.
	ClassBackend = "backend-mismatch"
	// ClassSampling: a sampled action violates the every-Nth arithmetic
	// against the program's unsampled twin — per placement, observed
	// fires must equal floor(unsampled fires / N) and skips must account
	// for every swallowed hit. Never legal.
	ClassSampling = "sampling-mismatch"
	// ClassUntracked: a cell counted firings or sampling skips in the
	// collector's untracked bucket — a probe fired that registered no
	// attribution row. Never legal: the machine registers a row for
	// every probe it installs.
	ClassUntracked = "untracked-firing"
	// ClassGoverned: a backend's governed default cell disagrees with
	// its ungoverned default cell on the error, the application's
	// instruction count or its exit code. Never legal: the governor
	// samples and ejects probes, which must not change what the
	// application does.
	ClassGoverned = "governed-app-mismatch"
)

// Divergence is one classified disagreement between two cells.
type Divergence struct {
	Class  string
	Legal  bool
	Cells  [2]Cell
	Detail string
}

func (d Divergence) String() string {
	tag := "ILLEGAL"
	if d.Legal {
		tag = "legal"
	}
	return fmt.Sprintf("[%s] %s: %s vs %s: %s", tag, d.Class, d.Cells[0], d.Cells[1], d.Detail)
}

// PairResult is the outcome of running one (program, victim) pair
// through the full differential matrix.
type PairResult struct {
	Program     *Program
	Victim      *Victim
	Traits      Traits
	Results     []RunResult
	Divergences []Divergence
	// SamplingChecks counts the sampled placements whose every-Nth
	// arithmetic was verified against the unsampled twin (0 when the
	// program has no sample clauses).
	SamplingChecks int
}

// Illegal returns the divergences the oracle could not classify as one
// of the paper's documented legal divergences.
func (p *PairResult) Illegal() []Divergence {
	var out []Divergence
	for _, d := range p.Divergences {
		if !d.Legal {
			out = append(out, d)
		}
	}
	return out
}

// LoadVictim assembles and loads victim sources into a CFG program.
func LoadVictim(srcs []string) (*cfg.Program, error) {
	mods := make([]*obj.Module, 0, len(srcs))
	for _, s := range srcs {
		m, err := asm.Assemble(s)
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	p, err := obj.Load(mods, vm.RuntimeExterns())
	if err != nil {
		return nil, err
	}
	return cfg.Build(p)
}

// DeriveTraits computes the oracle-relevant properties from the
// compiled tool and loaded victim.
func DeriveTraits(tool *engine.CompiledTool, prog *cfg.Program) Traits {
	t := Traits{MultiModule: len(prog.Modules) > 1}
	exe := prog.Modules[0]
	if exe.Loaded.HasUnrecoverableControlFlow() {
		t.Unrecoverable = true
	}
	for _, f := range exe.Funcs {
		if f.Imprecise {
			t.Unrecoverable = true
		}
	}
	t.UsesLoops = usesLoops(tool.Prog.Items)
	return t
}

func usesLoops(items []ast.TopItem) bool {
	var cmdHasLoop func(c *ast.Command) bool
	cmdHasLoop = func(c *ast.Command) bool {
		if c.EType == ast.Loop {
			return true
		}
		for _, it := range c.Body {
			if nc, ok := it.(*ast.Command); ok && cmdHasLoop(nc) {
				return true
			}
		}
		return false
	}
	for _, it := range items {
		if c, ok := it.(*ast.Command); ok && cmdHasLoop(c) {
			return true
		}
	}
	return false
}

// Cells returns the differential matrix for the traits: every backend's
// default cell, one cell per single-layer ablation and one with every
// layer off, plus the same for Pin with the loop-detection extension
// when the tool has loop commands (so Pin still participates in the
// cross-check instead of only being skipped); then the same cells again
// governed.
func Cells(t Traits) []Cell {
	bases := []Cell{{Backend: backend.Janus}, {Backend: backend.Dyninst}, {Backend: backend.Pin}}
	if t.UsesLoops {
		bases = append(bases, Cell{Backend: backend.Pin, LoopDetection: true})
	}
	var cells []Cell
	for _, governed := range []bool{false, true} {
		for _, c := range bases {
			c.Governed = governed
			cells = append(cells, c)
			for _, a := range append(backend.Ablations(), backend.AblateAll) {
				c.Ablate = a
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// RunPair executes the pair through the full matrix and classifies
// every disagreement. It returns an error only when the pair cannot be
// set up at all (tool fails to compile, victim fails to assemble) —
// generator invariants, not conformance findings. The cells share one
// artifact cache, the production default, so cells that differ only in
// machine layers replay the template their backend's default cell
// recorded — any state the template failed to rebind would surface as
// a divergence from that cell.
func RunPair(p *Program, v *Victim) (*PairResult, error) {
	tool, err := engine.Compile(p.Source)
	if err != nil {
		return nil, fmt.Errorf("tool does not compile: %w", err)
	}
	prog, err := LoadVictim(v.Srcs)
	if err != nil {
		return nil, fmt.Errorf("victim does not load: %w", err)
	}
	traits := DeriveTraits(tool, prog)
	pr := &PairResult{Program: p, Victim: v, Traits: traits}
	cache := artifacts.New(artifacts.Options{})
	for _, cell := range Cells(traits) {
		pr.Results = append(pr.Results, runCell(tool, prog, cell, cache))
	}
	pr.Divergences = Compare(pr.Results, traits)
	sdivs, checks := CompareSampling(tool, prog)
	pr.SamplingChecks = checks
	pr.Divergences = append(pr.Divergences, sdivs...)
	return pr, nil
}

func runCell(tool *engine.CompiledTool, prog *cfg.Program, cell Cell, cache *artifacts.Cache) RunResult {
	var out bytes.Buffer
	col := obs.New(obs.Options{})
	opts := backend.Options{
		Out:              &out,
		PinLoopDetection: cell.LoopDetection,
		Obs:              col,
		Ablate:           cell.Ablate,
		Artifacts:        cache,
	}
	var gov *governor.Governor
	if cell.Governed {
		var err error
		gov, err = governor.New(governor.Config{Budget: governedBudget, Collector: col, Window: governedWindow})
		if err != nil {
			return RunResult{Cell: cell, Err: err.Error()}
		}
		opts.Adaptive, opts.OnMachine = true, gov.Attach
	}
	res, err := backend.Run(tool, prog, cell.Backend, opts)
	rr := RunResult{Cell: cell, Output: out.String(), Fires: map[string]uint64{}, Skips: map[string]uint64{}}
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	rr.Cycles, rr.Insts, rr.ExitCode = res.Cycles, res.Insts, res.ExitCode
	if gov != nil {
		rr.Decisions = gov.Decisions()
	}
	stats := col.Snapshot(cell.Backend)
	for _, ps := range stats.Probes {
		rr.Fires[ps.Label] += ps.Fires
		rr.Skips[ps.Label] += ps.Skips
	}
	rr.TotalFires = stats.TotalFires
	rr.UntrackedFires, rr.UntrackedSkips = stats.UntrackedFires, stats.UntrackedSkips
	rr.CountersPromoted = stats.Build.CountersPromoted
	return rr
}

// Compare classifies every disagreement in the result matrix against
// the structured oracle. The reference cell is Janus's default: Janus
// instruments only the executable (like Dyninst) and supports every
// trigger kind, so the legal rules radiate from it.
func Compare(results []RunResult, traits Traits) []Divergence {
	var divs []Divergence
	byCell := map[Cell]RunResult{}
	for _, r := range results {
		byCell[r.Cell] = r
		// Rule 0: every firing reaches a row. A registration fault
		// every backend shares agrees across cells, so each cell is
		// held to it on its own.
		if r.UntrackedFires != 0 || r.UntrackedSkips != 0 {
			divs = append(divs, Divergence{
				Class: ClassUntracked, Cells: [2]Cell{r.Cell, r.Cell},
				Detail: fmt.Sprintf("%d fires and %d skips reached no attribution row", r.UntrackedFires, r.UntrackedSkips),
			})
		}
	}

	// Rule 1: ablations are invisible. Every speed layer is
	// bit-identical, so each ablated cell must match its backend's
	// default cell of its column (governed or not) exactly: error text,
	// output, cycle totals, per-probe fires and skips, and the decision
	// log.
	for _, r := range results {
		base := r.Cell
		base.Ablate = 0
		a, ok := byCell[base]
		if r.Cell.Ablate == 0 || !ok {
			continue
		}
		if d := diffExact(a, r, true); d != "" {
			divs = append(divs, Divergence{
				Class: ClassAblation, Cells: [2]Cell{base, r.Cell}, Detail: d,
			})
		}
	}

	// Rule 4: the governor is transparent to the application. Each
	// backend's governed default cell must fail as its ungoverned
	// default cell does and otherwise run the same application
	// instructions to the same exit code; Rule 1 extends this to every
	// ablation of both columns.
	for _, g := range results {
		if !g.Cell.Governed || g.Cell.Ablate != 0 {
			continue
		}
		twin := g.Cell
		twin.Governed = false
		u, ok := byCell[twin]
		if !ok {
			continue
		}
		var bad []string
		if u.Err != g.Err {
			bad = append(bad, fmt.Sprintf("error %q vs %q", u.Err, g.Err))
		}
		if u.Insts != g.Insts {
			bad = append(bad, fmt.Sprintf("insts %d vs %d", u.Insts, g.Insts))
		}
		if u.ExitCode != g.ExitCode {
			bad = append(bad, fmt.Sprintf("exit code %d vs %d", u.ExitCode, g.ExitCode))
		}
		if len(bad) > 0 {
			divs = append(divs, Divergence{
				Class: ClassGoverned, Cells: [2]Cell{twin, g.Cell}, Detail: strings.Join(bad, "; "),
			})
		}
	}

	ref, ok := byCell[Cell{Backend: backend.Janus}]
	if !ok {
		return divs
	}
	if ref.Err != "" {
		divs = append(divs, Divergence{
			Class: ClassRef, Cells: [2]Cell{ref.Cell, ref.Cell},
			Detail: "janus (reference) failed: " + ref.Err,
		})
		return divs
	}

	// Rule 2: Dyninst agrees with Janus exactly (both instrument only
	// the executable) — except that it may refuse a binary whose
	// control flow could not be recovered, which is the paper's
	// documented Dyninst gap.
	dy := byCell[Cell{Backend: backend.Dyninst}]
	if dy.Err != "" {
		legal := traits.Unrecoverable &&
			(strings.Contains(dy.Err, "control-flow recovery failed") ||
				strings.Contains(dy.Err, "imprecise control flow"))
		class := ClassBackend
		if legal {
			class = ClassDyninstCFG
		}
		divs = append(divs, Divergence{
			Class: class, Legal: legal,
			Cells:  [2]Cell{dy.Cell, ref.Cell},
			Detail: "dyninst refused: " + dy.Err,
		})
	} else if d := diffExact(ref, dy, false); d != "" {
		divs = append(divs, Divergence{
			Class: ClassBackend, Cells: [2]Cell{ref.Cell, dy.Cell}, Detail: d,
		})
	}

	// Rule 3: Pin. Loop commands: plain Pin must refuse (legal); with
	// the loop-detection extension it must then agree like any dynamic
	// backend. Multi-module victims: Pin sees shared libraries, so its
	// event counts dominate the reference — fires per probe must be >=
	// the reference and the machine counters (application instructions,
	// exit code) must still agree. Single-module: exact agreement.
	pinCells := []Cell{{Backend: backend.Pin}}
	if traits.UsesLoops {
		pinCells = append(pinCells, Cell{Backend: backend.Pin, LoopDetection: true})
	}
	for _, pc := range pinCells {
		pin, ok := byCell[pc]
		if !ok {
			continue
		}
		if pin.Err != "" {
			if traits.UsesLoops && !pc.LoopDetection && strings.Contains(pin.Err, "no notion of loops") {
				divs = append(divs, Divergence{
					Class: ClassPinLoops, Legal: true,
					Cells:  [2]Cell{pc, ref.Cell},
					Detail: "pin refused loop command: " + pin.Err,
				})
				continue
			}
			divs = append(divs, Divergence{
				Class: ClassBackend, Cells: [2]Cell{pc, ref.Cell},
				Detail: "pin failed: " + pin.Err,
			})
			continue
		}
		if !traits.MultiModule {
			if d := diffExact(ref, pin, false); d != "" {
				divs = append(divs, Divergence{
					Class: ClassBackend, Cells: [2]Cell{ref.Cell, pc}, Detail: d,
				})
			}
			continue
		}
		// Multi-module: dominance check.
		var bad, extra []string
		for _, label := range sortedLabels(ref.Fires, pin.Fires) {
			rf, pf := ref.Fires[label], pin.Fires[label]
			if pf < rf {
				bad = append(bad, fmt.Sprintf("%s: pin %d < ref %d", label, pf, rf))
			} else if pf > rf {
				extra = append(extra, fmt.Sprintf("%s: pin %d > ref %d", label, pf, rf))
			}
		}
		if pin.Insts < ref.Insts {
			bad = append(bad, fmt.Sprintf("insts: pin %d < ref %d", pin.Insts, ref.Insts))
		}
		if pin.ExitCode != ref.ExitCode {
			bad = append(bad, fmt.Sprintf("exit code: pin %d != ref %d", pin.ExitCode, ref.ExitCode))
		}
		if len(bad) > 0 {
			divs = append(divs, Divergence{
				Class: ClassBackend, Cells: [2]Cell{pc, ref.Cell},
				Detail: "pin undercounts reference: " + strings.Join(bad, "; "),
			})
			continue
		}
		if len(extra) > 0 || pin.Output != ref.Output || pin.Insts > ref.Insts {
			detail := "pin sees shared libraries"
			if len(extra) > 0 {
				detail += ": " + strings.Join(extra, "; ")
			}
			divs = append(divs, Divergence{
				Class: ClassPinLibs, Legal: true,
				Cells: [2]Cell{pc, ref.Cell}, Detail: detail,
			})
		}
	}
	return divs
}

// diffExact compares two results field by field and describes the first
// few differences (empty string when identical). Cycles, skips and
// decision logs are compared only between cells of one backend
// (sameBackend): backends price dispatch differently by design, so
// cross-backend cycle totals never match, and a governor steers by
// those cycles.
func diffExact(a, b RunResult, sameBackend bool) string {
	var out []string
	if a.Err != b.Err {
		out = append(out, fmt.Sprintf("error %q vs %q", a.Err, b.Err))
	}
	if a.Output != b.Output {
		out = append(out, fmt.Sprintf("output differs (%d vs %d bytes): %q vs %q",
			len(a.Output), len(b.Output), clip(a.Output), clip(b.Output)))
	}
	if a.Insts != b.Insts {
		out = append(out, fmt.Sprintf("insts %d vs %d", a.Insts, b.Insts))
	}
	if a.ExitCode != b.ExitCode {
		out = append(out, fmt.Sprintf("exit code %d vs %d", a.ExitCode, b.ExitCode))
	}
	if sameBackend && a.Cycles != b.Cycles {
		out = append(out, fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles))
	}
	for _, label := range sortedLabels(a.Fires, b.Fires) {
		if a.Fires[label] != b.Fires[label] {
			out = append(out, fmt.Sprintf("fires[%s] %d vs %d", label, a.Fires[label], b.Fires[label]))
		}
	}
	if !sameBackend {
		return strings.Join(out, "; ")
	}
	for _, label := range sortedLabels(a.Skips, b.Skips) {
		if a.Skips[label] != b.Skips[label] {
			out = append(out, fmt.Sprintf("skips[%s] %d vs %d", label, a.Skips[label], b.Skips[label]))
		}
	}
	if i := firstDiff(a.Decisions, b.Decisions); i >= 0 {
		out = append(out, fmt.Sprintf("decision logs differ at entry %d (%d vs %d decisions)",
			i, len(a.Decisions), len(b.Decisions)))
	}
	return strings.Join(out, "; ")
}

// firstDiff returns the index of the first entry where two decision
// logs differ, or -1 when they are equal.
func firstDiff(a, b []governor.Decision) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func sortedLabels(ms ...map[string]uint64) []string {
	set := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

// --- Sampling-legality oracle ---
//
// A program with `sample N` clauses is compared against its *unsampled
// twin*: the same source with every sample clause stripped, run through
// the reference backend on the same victim. Sampling is a pure firing
// filter — it must not move, add or remove placements — so per
// placement the sampled run's fires must equal floor(twin fires / N)
// (the countdown arms at N: hits N, 2N, ...) and its skips must account
// for every swallowed hit. The check is per obs report row, never
// label-aggregated: a multi-site action counts down per placement, and
// a sum of floors is not the floor of the sum.

// forEachAction visits every action in the program, including actions
// of nested commands.
func forEachAction(items []ast.TopItem, fn func(*ast.Action)) {
	var walk func(c *ast.Command)
	walk = func(c *ast.Command) {
		for _, it := range c.Body {
			switch x := it.(type) {
			case *ast.Action:
				fn(x)
			case *ast.Command:
				walk(x)
			}
		}
	}
	for _, it := range items {
		if c, ok := it.(*ast.Command); ok {
			walk(c)
		}
	}
}

// sampleStrides maps observability labels of sampled actions to their
// strides.
func sampleStrides(tool *engine.CompiledTool) map[string]uint64 {
	out := map[string]uint64{}
	forEachAction(tool.Prog.Items, func(a *ast.Action) {
		if ai := tool.Info.Actions[a]; ai != nil && ai.Sample > 1 {
			out[engine.Label(ai, a)] = ai.Sample
		}
	})
	return out
}

// stripSampling prints the program with every sample clause removed,
// restoring the AST before returning. The clause trails the action
// header, so removing it shifts no action position — the twin's
// pos-derived labels line up with the sampled program's.
func stripSampling(prog *ast.Program) string {
	type saved struct {
		act    *ast.Action
		stride int64
	}
	var restore []saved
	forEachAction(prog.Items, func(a *ast.Action) {
		if a.Sample > 0 {
			restore = append(restore, saved{a, a.Sample})
			a.Sample = 0
		}
	})
	src := ast.Print(prog)
	for _, s := range restore {
		s.act.Sample = s.stride
	}
	return src
}

// placementKey identifies one obs report row across the twin runs. n
// disambiguates rows sharing (label, trigger, addr) — e.g. two edges
// into the same block head — by registration order, which is
// deterministic and identical across twins.
type placementKey struct {
	label, trigger string
	addr           uint64
	n              int
}

func keyRows(rows []obs.ProbeStats) map[placementKey]obs.ProbeStats {
	seen := map[placementKey]int{}
	out := map[placementKey]obs.ProbeStats{}
	for _, r := range rows {
		k := placementKey{label: r.Label, trigger: r.Trigger, addr: r.Addr}
		k.n = seen[k]
		seen[placementKey{label: r.Label, trigger: r.Trigger, addr: r.Addr}]++
		out[k] = r
	}
	return out
}

// runRows executes the tool on the reference backend and returns the
// per-placement report rows.
func runRows(tool *engine.CompiledTool, prog *cfg.Program) ([]obs.ProbeStats, error) {
	col := obs.New(obs.Options{})
	_, err := backend.Run(tool, prog, backend.Janus, backend.Options{Out: io.Discard, Obs: col})
	if err != nil {
		return nil, err
	}
	return col.Snapshot(backend.Janus).Probes, nil
}

// CompareSampling checks the sampling-legality oracle for the pair and
// returns the divergences plus the number of sampled placements
// verified. Programs without sample clauses are skipped (0 checks).
func CompareSampling(tool *engine.CompiledTool, prog *cfg.Program) ([]Divergence, int) {
	if len(sampleStrides(tool)) == 0 {
		return nil, 0
	}
	refCell := Cell{Backend: backend.Janus}
	div := func(detail string) Divergence {
		return Divergence{Class: ClassSampling, Cells: [2]Cell{refCell, refCell}, Detail: detail}
	}
	// Both twins are compiled from canonically printed sources, so their
	// pos-derived labels line up even when the original source was not a
	// print fixed point.
	canon, err := engine.Compile(ast.Print(tool.Prog))
	if err != nil {
		return []Divergence{div("canonical reprint does not compile: " + err.Error())}, 0
	}
	strides := sampleStrides(canon)
	twin, err := engine.Compile(stripSampling(canon.Prog))
	if err != nil {
		return []Divergence{div("unsampled twin does not compile: " + err.Error())}, 0
	}
	sampled, serr := runRows(canon, prog)
	unsampled, uerr := runRows(twin, prog)
	if serr != nil {
		// The reference cell failing on the sampled program is already
		// classified (ClassRef) by Compare; nothing to check here.
		return nil, 0
	}
	if uerr != nil {
		return []Divergence{div("unsampled twin failed: " + uerr.Error())}, 0
	}
	divs, checks := compareSamplingRows(strides, sampled, unsampled)
	out := make([]Divergence, len(divs))
	for i, d := range divs {
		out[i] = div(d)
	}
	return out, checks
}

// compareSamplingRows verifies the per-placement arithmetic and returns
// the violation details (sorted, for deterministic reports) and the
// number of sampled rows checked.
func compareSamplingRows(strides map[string]uint64, sampled, unsampled []obs.ProbeStats) ([]string, int) {
	var out []string
	checks := 0
	sm, um := keyRows(sampled), keyRows(unsampled)
	for k, sr := range sm {
		ur, ok := um[k]
		if !ok {
			out = append(out, fmt.Sprintf("placement %q %s @%#x[%d] missing from unsampled twin",
				k.label, k.trigger, k.addr, k.n))
			continue
		}
		n := strides[k.label]
		if n <= 1 {
			if sr.Fires != ur.Fires || sr.Skips != 0 {
				out = append(out, fmt.Sprintf("unsampled action %q @%#x: fires %d (skips %d) vs twin %d",
					k.label, k.addr, sr.Fires, sr.Skips, ur.Fires))
			}
			continue
		}
		checks++
		wantFires := ur.Fires / n
		wantSkips := ur.Fires - wantFires
		if sr.Fires != wantFires || sr.Skips != wantSkips {
			out = append(out, fmt.Sprintf(
				"%q %s @%#x stride %d: fires/skips %d/%d, want %d/%d (twin hits %d)",
				k.label, k.trigger, k.addr, n, sr.Fires, sr.Skips, wantFires, wantSkips, ur.Fires))
		}
	}
	for k := range um {
		if _, ok := sm[k]; !ok {
			out = append(out, fmt.Sprintf("placement %q %s @%#x[%d] only in unsampled twin",
				k.label, k.trigger, k.addr, k.n))
		}
	}
	sort.Strings(out)
	return out, checks
}
