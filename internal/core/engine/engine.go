// Package engine implements Cinnamon's instrumentation stage: it walks
// the control-flow-element hierarchy of a loaded binary, executes each
// command's analysis code and constraints, and emits one shared
// placement rule table (internal/core/placement) that the backend
// Placer lowers into the target framework after the cross-backend
// optimization passes run over it.
//
// This is the executable equivalent of the paper's generated analysis
// passes: for every command, the generated code "traverses the list of
// CFEs based on the constraints specified by the command and executes any
// analysis code", then emits the framework-specific instrumentation for
// each action (rewrite rules for Janus, snippets for Dyninst, analysis
// calls for Pin).
//
// The default walk is compiled: each command's where clause and analysis
// code run as closures (internal/core/compile) on one frame per command,
// reused across the command's CFE instances, so a filtered instance costs
// no allocation. It only records: it yields a session-free Template
// (template.go), and every compiled session gets its rules from
// Template.Instantiate, the one place compiled bodies are bound. The
// interpreter walk (Options.Interpret) evaluates the analysis code with
// the tree-walking interpreter and binds as it goes; it is the reference
// the compiled path is held to.
package engine

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/compile"
	"repro/internal/core/interp"
	"repro/internal/core/parser"
	"repro/internal/core/placement"
	"repro/internal/core/sem"
	"repro/internal/core/value"
	"repro/internal/isa"
	"repro/internal/obs"
)

// CompiledTool is a parsed, semantically checked and closure-compiled
// Cinnamon program.
type CompiledTool struct {
	Prog *ast.Program
	Info *sem.Info
	// Code holds the closure-compiled action and init/exit bodies and
	// the compiled walk (the default path; Options.Interpret bypasses
	// it).
	Code *compile.Program
	Src  string
	// labels holds each action's Label, formatted once per tool rather
	// than once per placement.
	labels map[*ast.Action]string
}

// Compile parses, checks and closure-compiles Cinnamon source.
func Compile(src string) (*CompiledTool, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, err
	}
	code, err := compile.Compile(prog, info)
	if err != nil {
		return nil, err
	}
	labels := make(map[*ast.Action]string, len(info.Actions))
	for act, ai := range info.Actions {
		labels[act] = Label(ai, act)
	}
	return &CompiledTool{Prog: prog, Info: info, Code: code, Src: src, labels: labels}, nil
}

// Label returns the action's backend-stable observability label:
// canonical trigger, target CFE type and source position, e.g.
// "before inst @7:3". Exported so differential oracles can key
// per-action metadata (sampling strides) against obs report rows.
func Label(ai *sem.ActionInfo, act *ast.Action) string {
	return fmt.Sprintf("%s %s @%s", ai.Canonical, ai.TargetEType, act.Pos())
}

// Placer is the backend interface: it lowers the finished placement
// rule table (see internal/core/placement) onto a target framework.
type Placer interface {
	// Name identifies the backend ("pin", "dyninst", "janus").
	Name() string
	// Modules returns the modules this backend instruments (dynamic
	// frameworks see every module; static ones only the executable).
	Modules() []*cfg.Module
	// SupportsLoops reports whether loop trigger points exist in this
	// framework (false for Pin, which has no notion of loops).
	SupportsLoops() bool
	// Lower realizes the optimized rule table in the framework:
	// probes for the rules in table order, start/end code for
	// Inits/Finis. Called once, after the optimization passes ran and
	// the table was checked. The backends' Lower only records what the
	// framework installs once it runs.
	Lower(rs *placement.RuleSet) error
}

// Options configures an instrumentation run.
type Options struct {
	// Out receives the tool's print() output.
	Out io.Writer
	// Interpret executes the commands' analysis code, and action and
	// init/exit bodies, with the tree-walking interpreter instead of the
	// closure-compiled code — the reference path the equivalence tests
	// compare against.
	Interpret bool
	// Obs, when non-nil, receives instrumentation-time statistics
	// (actions placed, static-where filtered placements, pass
	// effects).
	Obs *obs.Collector
	// NoIROpt disables the placement-IR optimization passes
	// (where-clause hoisting, counter promotion, probe coalescing);
	// every rule then lowers through the generic mechanism.
	NoIROpt bool
	// Adaptive marks a governed run: probe coalescing is skipped so
	// every placement keeps its own control block.
	Adaptive bool
}

// Instance is the instrumented tool's record of the first runtime error
// its actions and init/exit blocks raise during execution.
type Instance struct {
	err error
}

// Err returns the first runtime error an action recorded, if any.
func (i *Instance) Err() error { return i.err }

func (i *Instance) record(err error) {
	if i.err == nil {
		i.err = err
	}
}

// engineRun is one CFE walk. On the compiled path it binds nothing: the
// commands' compiled analysis code runs on one frame per command (walk),
// and each placed action's captures are recorded for
// Template.Instantiate. Under Options.Interpret it evaluates the analysis
// code with the tree-walking interpreter and binds every action to it as
// it is placed, the reference the compiled path is held to.
type engineRun struct {
	tool *CompiledTool
	prog *cfg.Program
	in   *interp.Interp
	glob *interp.Env
	obs  *obs.Collector
	// walk holds the compiled walk's command frames; nil under
	// Options.Interpret.
	walk *compile.Walk
	// inst records the interpreted actions' runtime errors; nil on the
	// compiled path.
	inst *Instance
	// actions maps each placed Action to its recorded compiled body and
	// captures; nil under Options.Interpret.
	actions map[*placement.Action]*actionRec
	// rs accumulates the placement table the commands emit.
	rs *placement.RuleSet
	// optimize gates where-clause deferral (and, downstream, the
	// rewriting passes).
	optimize bool
	// placed and filtered count the action instances placed and the
	// instances a static where clause filtered, credited to obs once.
	placed, filtered int
}

// Instrument runs the analysis stage of the tool over the program,
// builds the placement rule table, runs the optimization passes, and
// lowers the table via the placer. The placer's framework must be run
// afterwards to execute the instrumented program.
func Instrument(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*Instance, error) {
	rs, inst, err := BuildRules(tool, prog, placer, opts)
	if err != nil {
		return nil, err
	}
	if err := placer.Lower(rs); err != nil {
		return nil, err
	}
	return inst, nil
}

// BuildRules is Instrument up to (but not including) backend lowering:
// it returns the optimized placement table, ready for Lower. A compiled
// build records a Template and instantiates it, as every compiled
// session does; under Options.Interpret the walk binds the interpreter
// directly. Exposed for the rule-IR golden and differential tests.
func BuildRules(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*placement.RuleSet, *Instance, error) {
	if !opts.Interpret {
		t, err := BuildTemplate(tool, prog, placer, opts)
		if err != nil {
			return nil, nil, err
		}
		return t.Instantiate(opts)
	}
	e, err := walk(tool, prog, placer, opts)
	if err != nil {
		return nil, nil, err
	}
	return e.rs, e.inst, nil
}

// walk runs the analysis stage: global initializers and command bodies
// print to opts.Out, every command maps over its CFE instances emitting
// rules, and the optimization passes rewrite the finished table, with
// build statistics going to opts.Obs. A table with an after trigger on a
// control transfer fails here, on every backend and on both walks.
func walk(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*engineRun, error) {
	// Preflight: backends without loop support reject loop commands (the
	// paper's loop-coverage tool "could not be translated to Pin in its
	// original form").
	if !placer.SupportsLoops() {
		var loopErr error
		var scan func(cmds []*ast.Command)
		scan = func(cmds []*ast.Command) {
			for _, c := range cmds {
				if c.EType == ast.Loop && loopErr == nil {
					loopErr = fmt.Errorf("cinnamon: %s: backend %q has no notion of loops; loop commands cannot be mapped",
						c.Pos(), placer.Name())
				}
				var nested []*ast.Command
				for _, item := range c.Body {
					if nc, ok := item.(*ast.Command); ok {
						nested = append(nested, nc)
					}
				}
				scan(nested)
			}
		}
		scan(tool.Info.Commands)
		if loopErr != nil {
			return nil, loopErr
		}
	}

	it := interp.New(tool.Info, opts.Out, nil)
	glob := interp.NewEnv(nil)
	for _, d := range tool.Info.Globals {
		if err := it.DeclareGlobal(glob, d); err != nil {
			return nil, err
		}
	}
	e := &engineRun{
		tool: tool, prog: prog, in: it, glob: glob, obs: opts.Obs,
		rs: &placement.RuleSet{}, optimize: !opts.NoIROpt,
	}
	if opts.Interpret {
		e.inst = &Instance{}
	} else {
		e.actions = make(map[*placement.Action]*actionRec)
		cells := make([]*value.Value, len(tool.Info.Globals))
		for i, d := range tool.Info.Globals {
			cells[i] = glob.Lookup(d.Name)
		}
		e.walk = tool.Code.NewWalk(cells, it.Out)
	}

	// Commands map in program order; within a command, per-module in
	// load order, per-CFE in address order.
	err := e.runCommands(placer.Modules())
	if e.obs != nil && e.placed+e.filtered > 0 {
		e.obs.MutateBuild(func(b *obs.BuildStats) {
			b.ActionsPlaced += e.placed
			b.StaticFiltered += e.filtered
		})
	}
	if err != nil {
		return nil, err
	}
	if e.inst != nil {
		for _, b := range tool.Info.Inits {
			e.rs.Inits = append(e.rs.Inits, e.interpBlock(b.Body))
		}
		for _, b := range tool.Info.Exits {
			e.rs.Finis = append(e.rs.Finis, e.interpBlock(b.Body))
		}
	}
	if err := placement.Apply(e.rs, placement.Config{
		Optimize: e.optimize,
		Adaptive: opts.Adaptive,
		Obs:      opts.Obs,
	}); err != nil {
		return nil, err
	}
	// The final table is checked, after the passes: a defer-safe where
	// clause drops its rules only when the hoisting pass resolves it.
	if err := checkAfter(e.rs); err != nil {
		return nil, err
	}
	return e, nil
}

// checkAfter rejects an after trigger on a branch, return or halt, which
// has no fall-through to fire at on any framework — eagerly, at
// instrumentation time (Section III-B6: "throw an error if not").
func checkAfter(rs *placement.RuleSet) error {
	for _, r := range rs.Rules() {
		if r.Trigger != placement.After {
			continue
		}
		switch r.Inst.Op {
		case isa.Branch, isa.Return, isa.Halt:
			return fmt.Errorf("cinnamon: after-trigger invalid on %s at %#x", r.Inst.Op, r.Inst.Addr)
		}
	}
	return nil
}

// runCommands maps every top-level command over every module.
func (e *engineRun) runCommands(mods []*cfg.Module) error {
	for i, cmd := range e.tool.Info.Commands {
		for _, mod := range mods {
			var err error
			if e.walk != nil {
				err = e.runCompiled(e.tool.Code.Commands[i], domain{module: mod})
			} else {
				err = e.runCommand(cmd, domain{module: mod}, e.glob)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// interpBlock runs one init/exit block on the tree-walking path, under
// Options.Interpret.
func (e *engineRun) interpBlock(body []ast.Stmt) func() {
	it, glob, inst := e.in, e.glob, e.inst
	return func() {
		inst.record(it.ExecStmts(interp.NewEnv(glob), body))
	}
}

// domain is the iteration space of a command: a whole module for
// top-level commands, or the CFE instance of the enclosing command.
type domain struct {
	module *cfg.Module
	parent *value.CFERef
}

// runCompiled maps one command on the compiled walk: each instance is
// written into the command's frame, which its where clause, analysis
// statements, nested commands and actions read.
func (e *engineRun) runCompiled(c *compile.Command, dom domain) error {
	f := e.walk.Frame(c)
	return e.instances(c.Cmd.EType, dom, f.Ref(), func() error {
		ok, err := f.Selects()
		if err != nil {
			return err
		}
		if !ok {
			e.filtered++
			return nil
		}
		for i, item := range c.Items {
			switch {
			case item.Command != nil:
				err = e.runCompiled(item.Command, domain{parent: f.Ref()})
			case item.Site != nil:
				err = e.placeCompiled(f, item.Site)
			default:
				err = f.Exec(i)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// runCommand maps one command on the interpreter walk: each instance
// gets its own CFE value and a fresh scope under env.
func (e *engineRun) runCommand(cmd *ast.Command, dom domain, env *interp.Env) error {
	var cur value.CFERef
	return e.instances(cmd.EType, dom, &cur, func() error {
		ref := cur
		cmdEnv := interp.NewEnv(env)
		cmdEnv.Define(cmd.Var, value.CFEVal(&ref))
		if cmd.Where != nil {
			v, err := e.in.Eval(cmdEnv, cmd.Where)
			if err != nil {
				return err
			}
			if !v.AsBool() {
				e.filtered++
				return nil
			}
		}
		for _, item := range cmd.Body {
			switch it := item.(type) {
			case *ast.Command:
				if err := e.runCommand(it, domain{parent: &ref}, cmdEnv); err != nil {
					return err
				}
			case *ast.Action:
				if err := e.placeAction(it, cmdEnv); err != nil {
					return err
				}
			case ast.Stmt:
				if err := e.in.ExecStmt(cmdEnv, it); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// instances enumerates the CFE instances of type et within the domain,
// in load and address order: each is written into *ref and then visited
// by fn. The first error fn returns stops the enumeration.
func (e *engineRun) instances(et ast.EType, dom domain, ref *value.CFERef, fn func() error) error {
	visit := func(r value.CFERef) error {
		r.Prog = e.prog
		*ref = r
		return fn()
	}
	// children visits f's loops (those directly inside loop when it is
	// set), or the blocks bs, or their instructions.
	children := func(f *cfg.Func, loop *cfg.Loop, bs []*cfg.Block) error {
		if et == ast.Loop {
			for _, l := range f.Loops {
				if loop == nil || l.Parent == loop {
					if err := visit(value.CFERef{Kind: ast.Loop, Loop: l, Func: f}); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for _, b := range bs {
			if et == ast.BasicBlock {
				if err := visit(value.CFERef{Kind: ast.BasicBlock, Block: b, Func: f}); err != nil {
					return err
				}
				continue
			}
			for _, in := range b.Insts {
				if err := visit(value.CFERef{Kind: ast.Inst, Inst: in, Block: b, Func: f}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	switch {
	case dom.module != nil:
		if et == ast.Module {
			return visit(value.CFERef{Kind: ast.Module, Module: dom.module})
		}
		for _, f := range dom.module.Funcs {
			var err error
			if et == ast.Func {
				err = visit(value.CFERef{Kind: ast.Func, Func: f})
			} else {
				err = children(f, nil, f.Blocks)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case dom.parent != nil:
		p := dom.parent
		switch p.Kind {
		case ast.Module:
			return e.instances(et, domain{module: p.Module}, ref, fn)
		case ast.Func:
			return children(p.Func, nil, p.Func.Blocks)
		case ast.Loop:
			return children(p.Func, p.Loop, p.Loop.Blocks)
		case ast.BasicBlock:
			if et == ast.Inst {
				return children(p.Func, nil, []*cfg.Block{p.Block})
			}
			return nil
		}
	}
	return fmt.Errorf("cinnamon: internal: invalid command domain for %s", et)
}

// placeCompiled places one action instance on the compiled walk: its
// static where clause is evaluated on the enclosing command's frame (see
// decided for a defer-safe one), and its captures are recorded by slot.
func (e *engineRun) placeCompiled(f *compile.Frame, s *compile.Site) error {
	ai := e.tool.Info.Actions[s.Act]
	var group *placement.WhereGroup
	var where ast.Expr
	if s.Act.Where != nil && !ai.WhereDynamic {
		ok, err := f.Places(s)
		switch {
		case err != nil:
			return err
		case e.optimize && ai.WhereDeferSafe:
			group, where = decided(ok), s.Act.Where
		case !ok:
			e.filtered++
			return nil
		}
	}
	a := e.newAction(s.Act, ai, group)
	e.record(f, s, a)
	return e.emit(s.Act, ai, f.Target(s), a, group, where)
}

// placeAction places one action instance on the interpreter walk.
func (e *engineRun) placeAction(act *ast.Action, env *interp.Env) error {
	ai := e.tool.Info.Actions[act]
	if ai == nil {
		return fmt.Errorf("cinnamon: internal: unchecked action at %s", act.Pos())
	}
	slot := env.Lookup(act.Target)
	if slot == nil || slot.Kind != value.KCFE {
		return fmt.Errorf("cinnamon: internal: action target %q unbound", act.Target)
	}

	// Static constraints filter at instrumentation time; dynamic ones
	// compile into a run-time guard. With the passes enabled, a
	// defer-safe static constraint is hoisted instead (see decided).
	var group *placement.WhereGroup
	var where ast.Expr
	if act.Where != nil && !ai.WhereDynamic {
		v, err := e.in.Eval(env, act.Where)
		switch {
		case err != nil:
			return err
		case e.optimize && ai.WhereDeferSafe:
			group, where = decided(v.AsBool()), act.Where
		case !v.AsBool():
			e.filtered++
			return nil
		}
	}
	a := e.newAction(act, ai, group)
	a.Exec = e.interpExec(act, ai, env)
	return e.emit(act, ai, slot.CFE, a, group, where)
}

// newAction makes the placement Action of one action instance. An
// instance whose where clause is deferred is counted by the hoisting
// pass instead.
func (e *engineRun) newAction(act *ast.Action, ai *sem.ActionInfo, group *placement.WhereGroup) *placement.Action {
	if group == nil {
		e.placed++
	}
	return &placement.Action{
		Label:       e.tool.labels[act],
		Cost:        ai.Cost,
		Simple:      ai.Simple,
		Sample:      ai.Sample,
		DynAttrs:    ai.DynAttrs,
		NumCaptured: ai.NumCaptured,
	}
}

// emit adds the rules that place a on the trigger points of the
// action's target ref.
func (e *engineRun) emit(act *ast.Action, ai *sem.ActionInfo, ref *value.CFERef, a *placement.Action, group *placement.WhereGroup, where ast.Expr) error {
	add := func(r *placement.Rule) {
		r.Action, r.Group, r.Where = a, group, where
		e.rs.Add(r)
	}
	switch ai.TargetEType {
	case ast.Inst:
		trig := placement.Before
		if ai.Canonical != ast.Before {
			trig = placement.After
		}
		add(&placement.Rule{Trigger: trig, Inst: ref.Inst, Block: ref.Block})
		return nil
	case ast.BasicBlock:
		if ai.Canonical == ast.Entry {
			add(&placement.Rule{Trigger: placement.BlockEntry, Block: ref.Block})
			return nil
		}
		// Block exit: immediately before the block's terminating
		// instruction.
		add(&placement.Rule{Trigger: placement.Before, Inst: ref.Block.Last(), Block: ref.Block})
		return nil
	case ast.Func:
		f := ref.Func
		if len(f.Blocks) == 0 {
			return nil
		}
		if ai.Canonical == ast.Entry {
			add(&placement.Rule{Trigger: placement.BlockEntry, Block: f.Blocks[0]})
			return nil
		}
		// Function exit: before every return (and halt, for the program
		// entry function).
		for _, b := range f.Blocks {
			last := b.Last()
			if last.Op == isa.Return || last.Op == isa.Halt {
				add(&placement.Rule{Trigger: placement.Before, Inst: last, Block: b})
			}
		}
		return nil
	case ast.Loop:
		l := ref.Loop
		var edges []cfg.Edge
		switch ai.Canonical {
		case ast.Entry:
			edges = l.Entries
		case ast.Exit:
			edges = l.Exits
		case ast.Iter:
			edges = l.Backs
		}
		for _, ed := range edges {
			add(&placement.Rule{Trigger: placement.Edge, From: ed.From, Block: ed.To})
		}
		return nil
	}
	return fmt.Errorf("cinnamon: internal: unplaceable action at %s", act.Pos())
}

// decided hands a defer-safe static where clause to the hoisting pass,
// which places or drops every rule of the action instance. The clause
// reads only CFE instances, which nothing changes, so the outcome keep,
// evaluated when the action was placed, is the one the pass would
// compute; and a clause that fails has failed there, as eager evaluation
// (-ablate=ir-opt) does.
func decided(keep bool) *placement.WhereGroup {
	return &placement.WhereGroup{Eval: func() (bool, error) { return keep, nil }}
}

// interpExec builds an action executor on the tree-walking path: the
// enclosing analysis scopes are captured by value into a snapshot
// (globals stay shared), and every firing re-walks the body AST.
func (e *engineRun) interpExec(act *ast.Action, ai *sem.ActionInfo, env *interp.Env) func(dyn []value.Value) {
	snap := interp.Snapshot(env, e.glob)
	in := e.in
	inst := e.inst
	where := act.Where
	dynWhere := ai.WhereDynamic
	body := act.Body
	attrs := ai.DynAttrs
	return func(dyn []value.Value) {
		var m map[string]value.Value
		if len(dyn) > 0 {
			m = make(map[string]value.Value, len(dyn))
			for i, da := range attrs {
				if i < len(dyn) {
					m[da.Var+"."+da.Attr] = dyn[i]
				}
			}
		}
		runEnv := interp.NewEnv(snap)
		runEnv.SetDyn(m)
		if dynWhere && where != nil {
			v, err := in.Eval(runEnv, where)
			if err != nil {
				inst.record(err)
				return
			}
			if !v.AsBool() {
				return
			}
		}
		if err := in.ExecStmts(runEnv, body); err != nil {
			inst.record(err)
		}
	}
}

// record keeps what Template.Instantiate needs to bind the action's
// compiled body at this placement: the value of each captured cell,
// copied out of the walk's frames now, and the tier the body supports
// with those values — MechFast for every compiled body, which is pure
// with respect to the machine, and MechCounter for an additive one.
func (e *engineRun) record(f *compile.Frame, s *compile.Site, a *placement.Action) {
	body := s.Body
	var caps []value.Value
	for i, c := range body.Cells {
		if c.Global {
			continue
		}
		if caps == nil {
			caps = make([]value.Value, len(body.Cells))
		}
		caps[i] = recordValue(*f.Capture(s, i))
	}
	a.Tier = placement.MechFast
	if body.Additive(caps) {
		a.Tier = placement.MechCounter
	}
	e.actions[a] = &actionRec{body: body, caps: caps}
}
