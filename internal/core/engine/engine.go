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
	// Code holds the closure-compiled action and init/exit bodies (the
	// default execution path; Options.Interpret bypasses it).
	Code *compile.Program
	Src  string
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
	return &CompiledTool{Prog: prog, Info: info, Code: code, Src: src}, nil
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
	// Inits/Finis. Called once, after the optimization passes ran.
	Lower(rs *placement.RuleSet) error
}

// Options configures an instrumentation run.
type Options struct {
	// Out receives the tool's print() output.
	Out io.Writer
	// Interpret executes action and init/exit bodies with the
	// tree-walking interpreter instead of the closure-compiled code —
	// the reference path the equivalence tests compare against.
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

// Instance is the instrumented tool: its shared globals and any runtime
// errors recorded by actions during execution.
type Instance struct {
	interp  *interp.Interp
	globals *interp.Env
	errs    []error
}

// Err returns the first runtime error an action recorded, if any.
func (i *Instance) Err() error {
	if len(i.errs) > 0 {
		return i.errs[0]
	}
	return nil
}

func (i *Instance) record(err error) {
	if err != nil {
		i.errs = append(i.errs, err)
	}
}

type engineRun struct {
	// binder binds the compiled bodies into the session. Its writer
	// equals the interpreter's analysis-time writer except under
	// template recording, where analysis output is teed into the
	// template but runtime output must not be.
	binder
	tool      *CompiledTool
	placer    Placer
	prog      *cfg.Program
	in        *interp.Interp
	interpret bool
	obs       *obs.Collector
	// rec, when non-nil, records the session-independent build products
	// for a reusable Template (see template.go).
	rec *templateRec
	// rs accumulates the placement table the commands emit.
	rs *placement.RuleSet
	// optimize gates where-clause deferral (and, downstream, the
	// rewriting passes).
	optimize bool
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
// it returns the optimized placement table, ready for Lower. Exposed
// for the rule-IR golden and differential tests.
func BuildRules(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*placement.RuleSet, *Instance, error) {
	return buildRules(tool, prog, placer, opts, nil)
}

// buildRules is BuildRules with an optional template recorder attached:
// when rec is non-nil the walk additionally captures everything a later
// Instantiate needs (per-action capture snapshots, analysis output,
// build-stat deltas), without changing what the build itself produces.
func buildRules(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options, rec *templateRec) (*placement.RuleSet, *Instance, error) {
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
			return nil, nil, loopErr
		}
	}

	// Under template recording, analysis-time output (global
	// initializers, command-body prints) is teed into the template so a
	// later Instantiate can replay it; runtime bodies bind against the
	// plain session writer so their output is never recorded.
	analysisOut := opts.Out
	buildObs := opts.Obs
	if rec != nil {
		if analysisOut == nil {
			analysisOut = &rec.analysisOut
		} else {
			analysisOut = io.MultiWriter(analysisOut, &rec.analysisOut)
		}
		buildObs = rec.col
	}
	it := interp.New(tool.Info, analysisOut, nil)
	glob := interp.NewEnv(nil)
	for _, d := range tool.Info.Globals {
		if err := it.DeclareGlobal(glob, d); err != nil {
			return nil, nil, err
		}
	}
	inst := &Instance{interp: it, globals: glob}
	bindOut := io.Writer(it.Out)
	if rec != nil {
		bindOut = opts.Out
		if bindOut == nil {
			bindOut = io.Discard
		}
	}
	e := &engineRun{
		tool: tool, placer: placer, prog: prog,
		in: it, interpret: opts.Interpret, obs: buildObs, rec: rec,
		rs: &placement.RuleSet{}, optimize: !opts.NoIROpt,
		binder: binder{glob: glob, out: bindOut, inst: inst},
	}

	// Commands map in program order; within a command, per-module in
	// load order, per-CFE in address order.
	for _, cmd := range tool.Info.Commands {
		for _, mod := range placer.Modules() {
			if err := e.runCommand(cmd, domain{module: mod}, glob); err != nil {
				return nil, nil, err
			}
		}
	}
	if e.interpret {
		for _, b := range tool.Info.Inits {
			e.rs.Inits = append(e.rs.Inits, e.interpBlock(b.Body))
		}
		for _, b := range tool.Info.Exits {
			e.rs.Finis = append(e.rs.Finis, e.interpBlock(b.Body))
		}
	} else {
		var err error
		if e.rs.Inits, err = e.blocks(tool.Code.Inits); err != nil {
			return nil, nil, err
		}
		if e.rs.Finis, err = e.blocks(tool.Code.Exits); err != nil {
			return nil, nil, err
		}
	}
	if err := placement.Apply(e.rs, placement.Config{
		Optimize: e.optimize,
		Adaptive: opts.Adaptive,
		Obs:      buildObs,
	}); err != nil {
		return nil, nil, err
	}
	return e.rs, inst, nil
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

func (e *engineRun) runCommand(cmd *ast.Command, dom domain, env *interp.Env) error {
	refs, err := e.instances(cmd.EType, dom)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		cmdEnv := interp.NewEnv(env)
		cmdEnv.Define(cmd.Var, value.CFEVal(ref))
		if cmd.Where != nil {
			v, err := e.in.Eval(cmdEnv, cmd.Where)
			if err != nil {
				return err
			}
			if !v.AsBool() {
				if e.obs != nil {
					e.obs.MutateBuild(func(b *obs.BuildStats) { b.StaticFiltered++ })
				}
				continue
			}
		}
		for _, item := range cmd.Body {
			switch it := item.(type) {
			case *ast.Command:
				if err := e.runCommand(it, domain{parent: ref}, cmdEnv); err != nil {
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
	}
	return nil
}

// instances enumerates the CFE instances of type et within the domain.
func (e *engineRun) instances(et ast.EType, dom domain) ([]*value.CFERef, error) {
	mk := func(r value.CFERef) *value.CFERef {
		r.Prog = e.prog
		return &r
	}
	var out []*value.CFERef
	addFuncChildren := func(f *cfg.Func) {
		switch et {
		case ast.Loop:
			for _, l := range f.Loops {
				out = append(out, mk(value.CFERef{Kind: ast.Loop, Loop: l, Func: f}))
			}
		case ast.BasicBlock:
			for _, b := range f.Blocks {
				out = append(out, mk(value.CFERef{Kind: ast.BasicBlock, Block: b, Func: f}))
			}
		case ast.Inst:
			for _, b := range f.Blocks {
				for _, in := range b.Insts {
					out = append(out, mk(value.CFERef{Kind: ast.Inst, Inst: in, Block: b, Func: f}))
				}
			}
		}
	}
	switch {
	case dom.module != nil:
		if et == ast.Module {
			return []*value.CFERef{mk(value.CFERef{Kind: ast.Module, Module: dom.module})}, nil
		}
		if et == ast.Func {
			for _, f := range dom.module.Funcs {
				out = append(out, mk(value.CFERef{Kind: ast.Func, Func: f}))
			}
			return out, nil
		}
		for _, f := range dom.module.Funcs {
			addFuncChildren(f)
		}
		return out, nil
	case dom.parent != nil:
		p := dom.parent
		switch p.Kind {
		case ast.Module:
			return e.instances(et, domain{module: p.Module})
		case ast.Func:
			addFuncChildren(p.Func)
			return out, nil
		case ast.Loop:
			switch et {
			case ast.Loop:
				for _, l := range p.Func.Loops {
					if l.Parent == p.Loop {
						out = append(out, mk(value.CFERef{Kind: ast.Loop, Loop: l, Func: p.Func}))
					}
				}
			case ast.BasicBlock:
				for _, b := range p.Loop.Blocks {
					out = append(out, mk(value.CFERef{Kind: ast.BasicBlock, Block: b, Func: p.Func}))
				}
			case ast.Inst:
				for _, b := range p.Loop.Blocks {
					for _, in := range b.Insts {
						out = append(out, mk(value.CFERef{Kind: ast.Inst, Inst: in, Block: b, Func: p.Func}))
					}
				}
			}
			return out, nil
		case ast.BasicBlock:
			if et == ast.Inst {
				for _, in := range p.Block.Insts {
					out = append(out, mk(value.CFERef{Kind: ast.Inst, Inst: in, Block: p.Block, Func: p.Func}))
				}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("cinnamon: internal: invalid command domain for %s", et)
}

func (e *engineRun) placeAction(act *ast.Action, env *interp.Env) error {
	ai := e.tool.Info.Actions[act]
	if ai == nil {
		return fmt.Errorf("cinnamon: internal: unchecked action at %s", act.Pos())
	}
	slot := env.Lookup(act.Target)
	if slot == nil || slot.Kind != value.KCFE {
		return fmt.Errorf("cinnamon: internal: action target %q unbound", act.Target)
	}
	ref := slot.CFE

	// Static constraints filter at instrumentation time; dynamic ones
	// compile into a run-time guard. With the passes enabled, a
	// defer-safe static constraint is hoisted instead: its CFE inputs
	// are snapshotted by value here and the decision moves to the
	// hoisting pass, with an outcome identical to eager evaluation.
	var group *placement.WhereGroup
	var whereExpr ast.Expr
	if act.Where != nil && !ai.WhereDynamic {
		if e.optimize && e.whereDeferSafe(act.Where, env) {
			group = e.deferWhere(act.Where, env)
			whereExpr = act.Where
		} else {
			v, err := e.in.Eval(env, act.Where)
			if err != nil {
				return err
			}
			if !v.AsBool() {
				if e.obs != nil {
					e.obs.MutateBuild(func(b *obs.BuildStats) { b.StaticFiltered++ })
				}
				return nil
			}
		}
	}
	if group == nil && e.obs != nil {
		e.obs.MutateBuild(func(b *obs.BuildStats) { b.ActionsPlaced++ })
	}

	a := &placement.Action{
		Label:       Label(ai, act),
		Cost:        ai.Cost,
		Simple:      ai.Simple,
		Sample:      ai.Sample,
		DynAttrs:    ai.DynAttrs,
		NumCaptured: env.NumVarsUntil(e.glob),
	}
	if e.interpret {
		a.Exec = e.interpExec(act, ai, env)
	} else if err := e.bindAction(act, env, a); err != nil {
		return err
	}
	emit := func(r *placement.Rule) {
		r.Action, r.Group, r.Where = a, group, whereExpr
		e.rs.Add(r)
	}

	switch ai.TargetEType {
	case ast.Inst:
		trig := placement.Before
		if ai.Canonical != ast.Before {
			trig = placement.After
		}
		emit(&placement.Rule{Trigger: trig, Inst: ref.Inst, Block: ref.Block})
		return nil
	case ast.BasicBlock:
		if ai.Canonical == ast.Entry {
			emit(&placement.Rule{Trigger: placement.BlockEntry, Block: ref.Block})
			return nil
		}
		// Block exit: immediately before the block's terminating
		// instruction.
		emit(&placement.Rule{Trigger: placement.Before, Inst: ref.Block.Last(), Block: ref.Block})
		return nil
	case ast.Func:
		f := ref.Func
		if len(f.Blocks) == 0 {
			return nil
		}
		if ai.Canonical == ast.Entry {
			emit(&placement.Rule{Trigger: placement.BlockEntry, Block: f.Blocks[0]})
			return nil
		}
		// Function exit: before every return (and halt, for the program
		// entry function).
		for _, b := range f.Blocks {
			last := b.Last()
			if last.Op == isa.Return || last.Op == isa.Halt {
				emit(&placement.Rule{Trigger: placement.Before, Inst: last, Block: b})
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
			emit(&placement.Rule{Trigger: placement.Edge, From: ed.From, Block: ed.To})
		}
		return nil
	}
	return fmt.Errorf("cinnamon: internal: unplaceable action at %s", act.Pos())
}

// whereDeferSafe reports whether a static where clause may be hoisted:
// its value must be fully determined by the by-value snapshot taken at
// emission time. That holds when the expression reads only CFE-typed
// variables (snapshotted), literals, and pure operators over them —
// calls and indexing (which reach mutable analysis state or the tool
// file system) force eager evaluation.
func (e *engineRun) whereDeferSafe(where ast.Expr, env *interp.Env) bool {
	safe := true
	ast.Walk(where, func(x ast.Expr) {
		switch n := x.(type) {
		case *ast.Ident:
			slot := env.Lookup(n.Name)
			if slot == nil || slot.Kind != value.KCFE {
				safe = false
			}
		case *ast.IntLit, *ast.StringLit, *ast.CharLit, *ast.BoolLit,
			*ast.NullLit, *ast.OpcodeLit:
		case *ast.BinaryExpr, *ast.UnaryExpr, *ast.FieldExpr, *ast.IsTypeExpr:
		default:
			safe = false
		}
	})
	return safe
}

// deferWhere packages a defer-safe static where clause as a
// WhereGroup: the referenced CFE variables are copied into an isolated
// scope now, so the predicate evaluates later to exactly what eager
// evaluation would have produced, immune to analysis-time mutation.
func (e *engineRun) deferWhere(where ast.Expr, env *interp.Env) *placement.WhereGroup {
	weEnv := interp.NewEnv(nil)
	ast.Walk(where, func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok {
			if slot := env.Lookup(id.Name); slot != nil {
				weEnv.Define(id.Name, value.Copy(*slot))
			}
		}
	})
	in := e.in
	return &placement.WhereGroup{Eval: func() (bool, error) {
		v, err := in.Eval(weEnv, where)
		if err != nil {
			return false, err
		}
		return v.AsBool(), nil
	}}
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

// bindAction binds the action's compiled body for this placement, with
// each capture copied by value out of the walk's scope. Under template
// recording the captures are also recorded against the placed Action,
// so Instantiate can rebind the same body with equal captures for
// another session.
func (e *engineRun) bindAction(act *ast.Action, env *interp.Env, a *placement.Action) error {
	body := e.tool.Code.Actions[act]
	if body == nil {
		return fmt.Errorf("cinnamon: internal: uncompiled action at %s", act.Pos())
	}
	var caps map[string]value.Value
	if e.rec != nil {
		caps = make(map[string]value.Value)
		e.rec.actions[a] = &actionRec{body: body, caps: caps}
	}
	return e.action(a, body, func(name string) (value.Value, bool) {
		slot := env.Lookup(name)
		if slot == nil {
			return value.Value{}, false
		}
		if caps != nil {
			caps[name] = recordValue(*slot)
		}
		return value.Copy(*slot), true
	})
}

// binder binds compiled bodies into one session, cold or instantiated
// from a Template: globals resolve to the session's shared slots, each
// capture to a fresh cell, print() output goes to out and runtime errors
// are recorded into inst. The two callers differ only in where a
// capture's value comes from.
type binder struct {
	glob *interp.Env
	out  io.Writer
	inst *Instance
}

// bind binds one compiled body; capture returns the private value of
// each captured variable's fresh cell, false when it has none.
func (b binder) bind(body *compile.Body, capture func(name string) (value.Value, bool)) (*compile.Bound, error) {
	return body.Bind(func(ref compile.CellRef) (*value.Value, error) {
		if ref.Global {
			if v := b.glob.Lookup(ref.Name); v != nil {
				return v, nil
			}
			return nil, fmt.Errorf("cinnamon: internal: unresolved global %q", ref.Name)
		}
		v, ok := capture(ref.Name)
		if !ok {
			return nil, fmt.Errorf("cinnamon: internal: unresolved capture %q", ref.Name)
		}
		return &v, nil
	}, b.out)
}

// action binds an action body as a's executors: Exec, and the fast
// lowering the placement IR promotes (Inline; nil when the placement
// has none). Every firing runs the closure chain on the reused frame.
func (b binder) action(a *placement.Action, body *compile.Body, capture func(name string) (value.Value, bool)) error {
	bound, err := b.bind(body, capture)
	if err != nil {
		return err
	}
	inst := b.inst
	var il *placement.InlineInfo
	if fast := bound.FastExec(); fast != nil {
		il = &placement.InlineInfo{Exec: func(dyn []value.Value) {
			if err := fast(dyn); err != nil {
				inst.record(err)
			}
		}}
		il.Flush, _ = bound.CounterShape()
	}
	a.Exec = func(dyn []value.Value) {
		if err := bound.Exec(dyn); err != nil {
			inst.record(err)
		}
	}
	a.Inline = il
	return nil
}

// blocks binds the init or exit bodies, which capture nothing.
func (b binder) blocks(bodies []*compile.Body) ([]func(), error) {
	var fns []func()
	for _, body := range bodies {
		bound, err := b.bind(body, func(string) (value.Value, bool) { return value.Value{}, false })
		if err != nil {
			return nil, err
		}
		inst := b.inst
		fns = append(fns, func() { inst.record(bound.Exec(nil)) })
	}
	return fns, nil
}
