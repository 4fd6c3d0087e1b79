// Package backend maps compiled Cinnamon tools onto the three
// instrumentation frameworks — Pin, Dyninst and Janus — implementing the
// engine.Placer interface for each. This is the code-generator half of
// the Cinnamon compiler in executable form: each placer lowers the shared
// placement rule table (internal/core/placement) with the target
// framework's native mechanism (analysis calls, snippets, rewrite rules +
// clean calls) and its cost model.
//
// The cost asymmetries measured in the paper's Figure 13 live here:
//
//   - Pin: Cinnamon encapsulates every action in a callback invoked by a
//     clean call (never inlined), while hand-written Pin tools register
//     short analysis routines that Pin inlines.
//   - Janus: DynamoRIO inlines clean calls whose callback is simple
//     enough, which Cinnamon's generated callbacks often are; only the
//     rule-decoding glue and payload marshalling remain.
//   - Dyninst: both Cinnamon and native tools insert snippets; Cinnamon
//     pays only a small generic-marshalling surcharge.
package backend

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/core/sem"
	"repro/internal/core/value"
	"repro/internal/dyninst"
	"repro/internal/janus"
	"repro/internal/obs"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Per-backend glue costs (cycle units): the extra work of Cinnamon's
// generated callback encapsulation compared to a hand-written tool —
// argument unpacking, generic marshalling, rule decoding.
const (
	PinGlue     = 2
	DyninstGlue = 2
	JanusGlue   = 4
)

// Names of the supported backends.
const (
	Pin     = "pin"
	Dyninst = "dyninst"
	Janus   = "janus"
)

// Backends lists the supported backend names.
func Backends() []string { return []string{Pin, Dyninst, Janus} }

// Options configures a tool run.
type Options struct {
	// Out receives the tool's print() output.
	Out io.Writer
	// Fuel bounds application instructions (0 = default).
	Fuel uint64
	// AppOut receives the application's output (discarded if nil).
	AppOut io.Writer
	// PinLoopDetection enables the extension suggested in the paper's
	// Section VI-E: integrate a loop-detection technique into the Pin
	// backend so loop commands become mappable. Loop trigger points are
	// realized as edge instrumentation derived from the detected loops,
	// at clean-call cost plus a per-firing detection surcharge.
	PinLoopDetection bool
	// Ablate switches bit-identical speed layers off (see Ablation):
	// the action compiler, block translation, action inlining, the
	// placement-IR passes and the artifact cache.
	Ablate Ablation
	// Obs, when non-nil, collects per-probe firing attribution and
	// instrumentation-time statistics across the engine, the framework
	// and the machine (see internal/obs).
	Obs *obs.Collector
	// VMMode set to vm.ExecInterpreted is the same switch as the
	// AblateTranslate member of Ablate. It stays only because the
	// repository benchmark (perfbench/) sets it; remove it at the next
	// change to the benchmark.
	VMMode vm.ExecMode
	// Adaptive allocates an adaptive control block for every placed
	// probe, so probes can be ejected and re-armed mid-run even when no
	// action carries a `sample` clause (the overhead governor needs
	// this). Sampled actions get control blocks regardless. Probe
	// coalescing is skipped under Adaptive: merged probes have no
	// control block.
	Adaptive bool
	// OnMachine, when non-nil, receives the framework's underlying
	// machine before execution starts — the attachment point for
	// adaptive controllers such as internal/governor.
	OnMachine func(*vm.VM)
	// Stop, when non-nil, is a cooperative cancellation flag polled by
	// the machine at block-start dispatch: setting it from any goroutine
	// makes the run fail with vm.ErrStopped. Session schedulers
	// (internal/fleet) use it to cancel sessions on drain.
	Stop *atomic.Bool
	// Artifacts, when non-nil, is the shared artifact cache consulted
	// for the instrumentation rule template: a hit skips the CFE walk,
	// and a miss stores the template the walk recorded. Either way the
	// session instantiates the template. Runs ablating the cache or the
	// action compiler bypass it.
	Artifacts *artifacts.Cache
}

// vmConfig maps the run options onto the configuration of the machine the
// framework runs on.
func (opts Options) vmConfig() vm.Config {
	ablate := opts.Ablate
	if opts.VMMode == vm.ExecInterpreted {
		ablate |= AblateTranslate
	}
	return vm.Config{
		Fuel: opts.Fuel, AppOut: opts.AppOut, Obs: opts.Obs,
		ExecMode: ablate.ExecMode(), NoInline: ablate&AblateInline != 0, Adaptive: opts.Adaptive,
		OnMachine: opts.OnMachine, Stop: opts.Stop,
	}
}

// engineOptions maps the run options onto the instrumentation stage.
func engineOptions(opts Options) engine.Options {
	return engine.Options{
		Out: opts.Out, Interpret: opts.Ablate&AblateCompile != 0, Obs: opts.Obs,
		NoIROpt: opts.Ablate&AblateIROpt != 0, Adaptive: opts.Adaptive,
	}
}

// instrument builds the session's placement rule table and lowers it
// onto the placer: the build's template is instantiated for the session,
// whether the attached artifact cache had it or it was recorded just now
// (and then stored). Only an ablated action compiler takes the
// interpreter walk, which has no template.
func instrument(tool *engine.CompiledTool, prog *cfg.Program, pl engine.Placer, opts Options) (*engine.Instance, error) {
	eopts := engineOptions(opts)
	if eopts.Interpret {
		return engine.Instrument(tool, prog, pl, eopts)
	}
	tmpl, err := template(tool, prog, pl, opts, eopts)
	if err != nil {
		return nil, err
	}
	rs, inst, err := tmpl.Instantiate(eopts)
	if err != nil {
		return nil, err
	}
	if err := pl.Lower(rs); err != nil {
		return nil, err
	}
	return inst, nil
}

// template returns the build's rule template: looked up in the
// artifact cache when one is attached and not ablated, otherwise (and on
// a miss) recorded, and stored when the cache is in use.
func template(tool *engine.CompiledTool, prog *cfg.Program, pl engine.Placer, opts Options, eopts engine.Options) (*engine.Template, error) {
	cache := opts.Artifacts
	if opts.Ablate&AblateCache != 0 {
		cache = nil
	}
	key := artifacts.TemplateKey{
		Tool: tool, Prog: prog, Backend: pl.Name(),
		PinLoopDetection: opts.PinLoopDetection,
		NoIROpt:          eopts.NoIROpt,
		Adaptive:         opts.Adaptive,
	}
	if cache != nil {
		if tmpl, ok := cache.Template(key); ok {
			artifacts.Lookup{Hit: true}.Record(opts.Obs)
			return tmpl, nil
		}
	}
	tmpl, err := engine.BuildTemplate(tool, prog, pl, eopts)
	if err != nil || cache == nil {
		return tmpl, err
	}
	artifacts.Lookup{Evicted: cache.PutTemplate(key, tmpl)}.Record(opts.Obs)
	return tmpl, nil
}

// PinLoopDetectCost is the extra per-firing price of the Pin loop
// detection extension (maintaining the block-trace state a dynamic
// loop detector needs).
const PinLoopDetectCost = 6

// placer is one backend session: newPlacer opens the backend on a
// program, Lower records the lowered rule table, and run builds the
// framework and its machine and executes the program. No machine exists
// before run.
type placer interface {
	engine.Placer
	run(opts Options) (*vm.Result, error)
}

// newPlacer opens the named backend on the program. Dyninst parses the
// executable for rewriting here, so a binary whose control flow it cannot
// recover is refused before any instrumentation work.
func newPlacer(name string, prog *cfg.Program, opts Options) (placer, error) {
	switch name {
	case Pin:
		return &pinPlacer{
			prog: prog, loopDetection: opts.PinLoopDetection,
			before: make(map[uint64][]pinPlacement),
			after:  make(map[uint64][]pinPlacement),
			blocks: make(map[uint64][]pinPlacement),
		}, nil
	case Dyninst:
		be, err := dyninst.OpenBinary(prog, opts.vmConfig())
		if err != nil {
			return nil, err
		}
		return &dyninstPlacer{be: be, prog: prog}, nil
	case Janus:
		return &janusPlacer{prog: prog}, nil
	}
	return nil, fmt.Errorf("cinnamon: unknown backend %q (have %s)", name, strings.Join(Backends(), ", "))
}

// Run compiles the tool onto the named backend, executes the program
// under it, and returns the machine result.
func Run(tool *engine.CompiledTool, prog *cfg.Program, backendName string, opts Options) (*vm.Result, error) {
	pl, err := newPlacer(backendName, prog, opts)
	if err != nil {
		return nil, err
	}
	inst, err := instrument(tool, prog, pl, opts)
	if err != nil {
		return nil, err
	}
	res, err := pl.run(opts)
	if err != nil {
		return nil, err
	}
	if err := inst.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Prepare performs the instrumentation stage for the named backend
// without executing the program: opening the backend, rule-table build
// (or cached-template instantiation) and lowering — the per-session
// startup work a scheduler does before it builds a session's machine.
// It builds no machine, so Options.OnMachine is never called. Also a
// dry-run validator: a tool that cannot be mapped onto the backend, or
// places an after trigger on a control transfer, fails here with the
// error Run would return. The fleet benchmark times it to compare cold
// and warm session startup.
func Prepare(tool *engine.CompiledTool, prog *cfg.Program, backendName string, opts Options) error {
	pl, err := newPlacer(backendName, prog, opts)
	if err != nil {
		return err
	}
	_, err = instrument(tool, prog, pl, opts)
	return err
}

// dynSlots fills the pre-sized attribute slot buffer from raw
// materialized words. The buffer is allocated once per placement and
// reused across firings (probes of one machine fire sequentially), so
// marshalling attribute values allocates nothing in steady state.
func dynSlots(buf []value.Value, words []uint64) []value.Value {
	for i, w := range words {
		buf[i] = value.UintVal(w)
	}
	return buf
}

// ---------------------------------------------------------------------------
// Pin backend

type pinPlacer struct {
	prog *cfg.Program
	// loopDetection enables the Section VI-E extension (see
	// Options.PinLoopDetection).
	loopDetection bool

	before, after map[uint64][]pinPlacement
	blocks        map[uint64][]pinPlacement
	edges         []pinEdge
	inits, finis  []func()
}

type pinEdge struct {
	from, to uint64
	p        pinPlacement
}

type pinPlacement struct {
	routine pin.Routine
	args    []pin.Arg
}

func (pl *pinPlacer) Name() string           { return Pin }
func (pl *pinPlacer) Modules() []*cfg.Module { return pl.prog.Modules }
func (pl *pinPlacer) SupportsLoops() bool    { return pl.loopDetection }

// pinArgs maps the action's dynamic attributes to IARG descriptors — the
// interface between the static and dynamic contexts for this framework.
func pinArgs(attrs []sem.DynAttr) ([]pin.Arg, error) {
	args := make([]pin.Arg, 0, len(attrs))
	for _, a := range attrs {
		switch {
		case a.Attr == "memaddr" || a.Attr == "srcaddr" || a.Attr == "dstaddr":
			args = append(args, pin.MemoryEA())
		case a.Attr == "rtnval":
			args = append(args, pin.RetVal())
		case a.Attr == "trgaddr":
			args = append(args, pin.BranchTarget())
		case strings.HasPrefix(a.Attr, "arg"):
			n, err := strconv.Atoi(a.Attr[3:])
			if err != nil {
				return nil, fmt.Errorf("cinnamon: bad call-argument attribute %q", a.Attr)
			}
			args = append(args, pin.FuncArg(n))
		default:
			return nil, fmt.Errorf("cinnamon: no Pin IARG mapping for dynamic attribute %q", a.Attr)
		}
	}
	return args, nil
}

// pinRoutine lowers one rule onto an analysis routine. The rule's
// mechanism tier gives the routine its inline surface; merged rules
// carry one pin.Part per constituent so Pin prices each separately and
// the machine gives each its own attribution row.
func pinRoutine(r *placement.Rule) (pinPlacement, error) {
	a := r.Action
	args, err := pinArgs(a.DynAttrs)
	if err != nil {
		return pinPlacement{}, err
	}
	buf := make([]value.Value, len(a.DynAttrs))
	exec := a.Exec
	routine := pin.Routine{
		Fn:   func(words []uint64) { exec(dynSlots(buf, words)) },
		Cost: a.Cost + PinGlue,
		// Cinnamon's generated callbacks are generic encapsulations;
		// Pin's automatic inlining never applies to them.
		Inlinable: false,
		Label:     a.Label,
		Sample:    a.Sample,
	}
	routine.Pure, routine.CounterFlush = r.Inline()
	if parts := r.Merged; len(parts) > 0 {
		routine.Merged = make([]pin.Part, len(parts))
		for i, p := range parts {
			routine.Merged[i] = pin.Part{Label: p.Action.Label, Cost: p.Action.Cost + PinGlue}
		}
	}
	return pinPlacement{routine: routine, args: args}, nil
}

// Lower records the rule table as Pin placements: the instrumentation
// callbacks registered by run look them up per instruction / trace.
func (pl *pinPlacer) Lower(rs *placement.RuleSet) error {
	for _, r := range rs.Rules() {
		p, err := pinRoutine(r)
		if err != nil {
			return err
		}
		switch r.Trigger {
		case placement.Before:
			pl.before[r.Inst.Addr] = append(pl.before[r.Inst.Addr], p)
		case placement.After:
			pl.after[r.Inst.Addr] = append(pl.after[r.Inst.Addr], p)
		case placement.BlockEntry:
			pl.blocks[r.Block.Start] = append(pl.blocks[r.Block.Start], p)
		case placement.Edge:
			if !pl.loopDetection {
				return fmt.Errorf("cinnamon: pin backend cannot instrument CFG edges (no loop support)")
			}
			// The detection surcharge models the run-time bookkeeping a
			// dynamic loop detector performs on top of the clean call —
			// per constituent for merged probes, matching separate
			// installation row for row.
			p.routine.Cost += PinLoopDetectCost
			for i := range p.routine.Merged {
				p.routine.Merged[i].Cost += PinLoopDetectCost
			}
			pl.edges = append(pl.edges, pinEdge{r.From.Start, r.Block.Start, p})
		}
	}
	pl.inits, pl.finis = rs.Inits, rs.Finis
	return nil
}

// run opens a Pin session on the program and attaches the generated Pin
// tool: one instruction-mode callback that looks up the placements
// computed by the analysis stage, a trace-mode callback for block-entry
// actions, and the tool's start and end code.
func (pl *pinPlacer) run(opts Options) (*vm.Result, error) {
	p := pin.New(pl.prog, opts.vmConfig())
	for _, fn := range pl.inits {
		fn := fn
		p.VM().OnStart(func(*vm.Ctx) { fn() })
	}
	for _, fn := range pl.finis {
		p.AddFiniFunction(fn)
	}
	var cbErr error
	record := func(err error) {
		if err != nil && cbErr == nil {
			cbErr = err
		}
	}
	p.INSAddInstrumentFunction(func(ins pin.INS) {
		for _, plc := range pl.before[ins.Address()] {
			record(ins.InsertCall(pin.IPointBefore, plc.routine, plc.args...))
		}
		for _, plc := range pl.after[ins.Address()] {
			record(ins.InsertCall(pin.IPointAfter, plc.routine, plc.args...))
		}
	})
	p.TraceAddInstrumentFunction(func(tr pin.TRACE) {
		for _, bbl := range tr.BBLs() {
			for _, plc := range pl.blocks[bbl.Address()] {
				record(bbl.InsertCall(plc.routine, plc.args...))
			}
		}
	})
	// The loop-detection extension realizes loop trigger points through
	// edge instrumentation on the machine underneath Pin.
	for _, e := range pl.edges {
		record(p.InsertEdgeCall(e.from, e.to, e.p.routine))
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if cbErr != nil {
		return nil, cbErr
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Dyninst backend

type dyninstPlacer struct {
	be   *dyninst.BinaryEdit
	prog *cfg.Program
}

func (pl *dyninstPlacer) Name() string        { return Dyninst }
func (pl *dyninstPlacer) SupportsLoops() bool { return true }

// Modules returns only the executable: the static rewriter does not touch
// shared libraries.
func (pl *dyninstPlacer) Modules() []*cfg.Module { return pl.prog.Modules[:1] }

// dyninstSnippet lowers one rule onto a snippet call: dynamic attributes
// become snippet argument expressions, the rule's mechanism tier gives
// the call its inline surface, and merged rules carry one dyninst.Part
// per constituent so the rewriter prices each separately and the
// machine gives each its own attribution row.
func dyninstSnippet(r *placement.Rule) (dyninst.Snippet, error) {
	a := r.Action
	args := make([]dyninst.Snippet, 0, len(a.DynAttrs))
	for _, da := range a.DynAttrs {
		switch {
		case da.Attr == "memaddr" || da.Attr == "srcaddr" || da.Attr == "dstaddr":
			args = append(args, dyninst.EffectiveAddressExpr{})
		case da.Attr == "rtnval":
			args = append(args, dyninst.RetExpr{})
		case da.Attr == "trgaddr":
			args = append(args, dyninst.BranchTargetExpr{})
		case strings.HasPrefix(da.Attr, "arg"):
			n, err := strconv.Atoi(da.Attr[3:])
			if err != nil {
				return nil, fmt.Errorf("cinnamon: bad call-argument attribute %q", da.Attr)
			}
			args = append(args, dyninst.ParamExpr{N: n})
		default:
			return nil, fmt.Errorf("cinnamon: no Dyninst snippet mapping for dynamic attribute %q", da.Attr)
		}
	}
	buf := make([]value.Value, len(a.DynAttrs))
	exec := a.Exec
	call := dyninst.FuncCallExpr{
		Fn:     func(words []uint64) { exec(dynSlots(buf, words)) },
		Args:   args,
		Cost:   a.Cost + DyninstGlue,
		Label:  a.Label,
		Sample: a.Sample,
	}
	call.Pure, call.CounterFlush = r.Inline()
	if parts := r.Merged; len(parts) > 0 {
		call.Merged = make([]dyninst.Part, len(parts))
		for i, p := range parts {
			call.Merged[i] = dyninst.Part{Label: p.Action.Label, Cost: p.Action.Cost + DyninstGlue}
		}
	}
	return call, nil
}

// Lower records the rule table as snippet insertions on the opened
// binary; run bakes them in before the first instruction.
func (pl *dyninstPlacer) Lower(rs *placement.RuleSet) error {
	img := pl.be.Image()
	for _, r := range rs.Rules() {
		s, err := dyninstSnippet(r)
		if err != nil {
			return err
		}
		var pt *dyninst.Point
		when := dyninst.CallBefore
		switch r.Trigger {
		case placement.Before, placement.After:
			if r.Trigger == placement.After {
				when = dyninst.CallAfter
			}
			pt, err = img.InstPoint(r.Inst.Addr)
		case placement.BlockEntry:
			pt, err = img.BlockEntryPoint(r.Block.Start)
		case placement.Edge:
			pt, err = img.EdgePoint(r.From.Start, r.Block.Start)
		}
		if err != nil {
			return err
		}
		if err := pl.be.InsertSnippet(s, pt, when); err != nil {
			return err
		}
	}
	for _, fn := range rs.Inits {
		pl.be.OnInit(fn)
	}
	for _, fn := range rs.Finis {
		pl.be.OnFini(fn)
	}
	return nil
}

// run writes out the rewritten binary and executes it.
func (pl *dyninstPlacer) run(Options) (*vm.Result, error) { return pl.be.Run() }

// ---------------------------------------------------------------------------
// Janus backend

type janusPlacer struct {
	prog *cfg.Program
	rs   *placement.RuleSet
}

func (pl *janusPlacer) Name() string        { return Janus }
func (pl *janusPlacer) SupportsLoops() bool { return true }

// Modules returns only the executable: the Janus static analyzer only
// annotates the main binary, so shared-library code is never
// instrumented.
func (pl *janusPlacer) Modules() []*cfg.Module { return pl.prog.Modules[:1] }

// Lower records the rule table for the dynamic instrumenter as-is:
// Janus consumes the placement IR natively (its rewrite-rule table is the
// same shape).
func (pl *janusPlacer) Lower(rs *placement.RuleSet) error {
	pl.rs = rs
	return nil
}

// run executes the program under Janus with the recorded table as the
// tool's rewrite rules.
func (pl *janusPlacer) run(opts Options) (*vm.Result, error) {
	return janus.Run(pl.prog, &janus.Tool{Name: "cinnamon", Rules: pl.rs, Glue: JanusGlue}, opts.vmConfig())
}
