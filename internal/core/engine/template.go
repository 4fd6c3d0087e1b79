package engine

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/compile"
	"repro/internal/core/interp"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/isa"
	"repro/internal/obs"
)

// The rule template: the session-independent half of an instrumentation
// build, recorded once and instantiated per session.
//
// BuildRules is deterministic for a given (tool, program, placer,
// engine options) — the walk enumerates CFEs in a fixed order, static
// where clauses resolve from by-value snapshots, and the optimization
// passes are pure table rewrites. What makes a built RuleSet
// session-bound is only the *binding*: action closures write to the
// session's output, mutate the session's global and captured cells, and
// record errors into the session's Instance. A Template therefore
// records the structure (post-pass rule list, mechanisms, merge runs)
// plus immutable snapshots of everything the bindings consumed (final
// global values, per-action captured values, analysis-time output,
// build-stat deltas), and Instantiate replays the binding step — fresh
// cells, fresh closures, fresh Instance — in a fraction of the full
// walk's cost. Per-session mutable state (probe IDs, counters, VM
// memory) lives in the collector and VM exactly as on the cold path.
//
// Tool files are session state too: analysis code may write them
// (Figure 9 records every function entry for its init block to read), so
// the template records each file's lines and read cursor, and every
// instantiation gets a fresh file system holding copies, with file
// globals and captures rebound to the fresh handles by name.
//
// Not every build is shareable: the interpreter path, caller-provided
// file systems, and captured or global values whose one-level copy would
// alias nested mutable state (nested containers, files held in
// containers) all disable recording. BuildTemplate then returns a nil
// Template and the build is simply not cached.

// templateRec accumulates recording state during one buildRules walk.
type templateRec struct {
	// col is a private collector: the walk and the passes bump their
	// build stats here so the template knows the exact deltas to replay
	// per instantiation (the caller's collector gets them merged in
	// afterwards).
	col *obs.Collector
	// analysisOut tees the analysis-time tool output.
	analysisOut bytes.Buffer
	// actions maps each placed Action to its AST node and captured
	// values.
	actions map[*placement.Action]*actionRec
}

// actionRec is one placed action's rebind record.
type actionRec struct {
	act *ast.Action
	// caps holds the non-global free variables of the compiled body,
	// by name, snapshotted at the cold bind. Never handed out directly:
	// Instantiate copies per session.
	caps map[string]value.Value
}

// ruleRec is one post-pass rule in table order. A merged rule records
// its constituents and is re-fused at instantiation so the fused
// closures bind to the new session's cells.
type ruleRec struct {
	trigger placement.Trigger
	inst    *isa.Inst
	block   *cfg.Block
	from    *cfg.Block
	action  *placement.Action // proto action (metadata key into Template.actions)
	mech    placement.Mechanism
	where   ast.Expr
	group   *placement.WhereGroup
	merged  []ruleRec
}

// globalRec is one global's final analysis-time value.
type globalRec struct {
	name string
	val  value.Value
}

// fileRec is one tool file's analysis-time contents and read cursor.
type fileRec struct {
	name    string
	lines   []string
	readPos int
}

// Template is a recorded instrumentation build, shareable read-only
// across sessions. Instantiate may be called concurrently.
type Template struct {
	tool    *CompiledTool
	prog    *cfg.Program
	globals []globalRec
	files   []fileRec
	out     []byte
	stats   obs.BuildStats
	actions map[*placement.Action]*actionRec
	rules   []ruleRec
}

// BuildTemplate runs BuildRules while recording a reusable Template.
// It returns the cold build's own RuleSet and Instance — identical to
// what BuildRules would have produced — plus the Template, or a nil
// Template when the build is not shareable (interpreter path, external
// file system, unshareable captured values). The RuleSet
// must still be lowered and used by the calling session as usual.
func BuildTemplate(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*Template, *placement.RuleSet, *Instance, error) {
	if opts.Interpret || tool.Code == nil || opts.FS != nil {
		rs, inst, err := buildRules(tool, prog, placer, opts, nil)
		return nil, rs, inst, err
	}
	rec := &templateRec{
		col:     obs.New(obs.Options{}),
		actions: make(map[*placement.Action]*actionRec),
	}
	rs, inst, err := buildRules(tool, prog, placer, opts, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	// The walk and passes bumped only the recorder's collector; merge
	// the deltas into the session's so the cold report is unchanged.
	stats := rec.col.Snapshot("").Build
	if opts.Obs != nil {
		opts.Obs.MutateBuild(func(b *obs.BuildStats) { addBuildDeltas(b, stats) })
	}
	return finalizeTemplate(tool, prog, rec, rs, inst, stats), rs, inst, nil
}

// addBuildDeltas adds the instrumentation-stage build stats a template
// replays (the lowering-stage fields are bumped live per session).
func addBuildDeltas(b *obs.BuildStats, d obs.BuildStats) {
	b.ActionsPlaced += d.ActionsPlaced
	b.StaticFiltered += d.StaticFiltered
	b.WheresHoisted += d.WheresHoisted
	b.CountersPromoted += d.CountersPromoted
	b.ProbesCoalesced += d.ProbesCoalesced
}

// finalizeTemplate checks shareability and freezes the recording, or
// returns nil when the build must stay session-private.
func finalizeTemplate(tool *CompiledTool, prog *cfg.Program, rec *templateRec, rs *placement.RuleSet, inst *Instance, stats obs.BuildStats) *Template {
	t := &Template{
		tool:    tool,
		prog:    prog,
		out:     rec.analysisOut.Bytes(),
		stats:   stats,
		actions: rec.actions,
	}
	fs := inst.interp.FS
	for _, name := range fs.Names() {
		f := fs.Open(name)
		t.files = append(t.files, fileRec{name: name, lines: slices.Clone(f.Lines), readPos: f.ReadPos})
	}
	for _, d := range tool.Info.Globals {
		slot := inst.globals.Lookup(d.Name)
		if slot == nil {
			return nil
		}
		v, ok := recordValue(*slot)
		if !ok {
			return nil
		}
		t.globals = append(t.globals, globalRec{name: d.Name, val: v})
	}
	for _, ar := range rec.actions {
		for name, v := range ar.caps {
			rv, ok := recordValue(v)
			if !ok {
				return nil
			}
			ar.caps[name] = rv
		}
	}
	for _, r := range rs.Rules() {
		rr, ok := recordRule(r, rec)
		if !ok {
			return nil
		}
		t.rules = append(t.rules, rr)
	}
	return t
}

// recordRule freezes one post-pass rule (recursing one level into the
// constituents of a merged rule).
func recordRule(r *placement.Rule, rec *templateRec) (ruleRec, bool) {
	rr := ruleRec{
		trigger: r.Trigger, inst: r.Inst, block: r.Block, from: r.From,
		mech: r.Mechanism, where: r.Where, group: r.Group,
	}
	if parts := r.Merged; len(parts) > 0 {
		for _, p := range parts {
			pr, ok := recordRule(p, rec)
			if !ok || len(pr.merged) > 0 {
				return ruleRec{}, false
			}
			rr.merged = append(rr.merged, pr)
		}
		return rr, true
	}
	if r.Action == nil || rec.actions[r.Action] == nil {
		// An action the walk did not record (native/raw placements).
		return ruleRec{}, false
	}
	rr.action = r.Action
	return rr, true
}

// recordValue snapshots one global or captured value for the template:
// a file handle becomes a detached handle naming its file (instantiation
// rebinds it to the session's copy), anything else a private copy;
// false when v cannot be shared.
func recordValue(v value.Value) (value.Value, bool) {
	if v.Kind == value.KFile {
		return value.Value{Kind: value.KFile, File: &value.FileVal{Name: v.File.Name}}, true
	}
	if !shareableValue(v) {
		return value.Value{}, false
	}
	return value.Copy(v), true
}

// instantiateValue is recordValue's inverse for one session: a file
// handle resolves by name in the session's file system, anything else
// is copied.
func instantiateValue(v value.Value, fs *interp.FS) value.Value {
	if v.Kind == value.KFile {
		return value.Value{Kind: value.KFile, File: fs.Open(v.File.Name)}
	}
	return value.Copy(v)
}

// shareableValue reports whether a snapshot of a value other than a
// file handle is safely private after one value.Copy: scalars, strings,
// opcodes and CFE references are immutable or read-only shared; flat
// containers copy; nested containers, and file handles held inside
// one, would alias mutable state across sessions.
func shareableValue(v value.Value) bool {
	deep := func(e value.Value) bool {
		switch e.Kind {
		case value.KDict, value.KVector, value.KArray, value.KFile:
			return false
		}
		return true
	}
	switch v.Kind {
	case value.KDict:
		// Numeric elements are stored unboxed; only the Value layouts
		// can hold a container.
		for _, e := range v.Dict.IntVals {
			if !deep(e) {
				return false
			}
		}
		for _, e := range v.Dict.StrVals {
			if !deep(e) {
				return false
			}
		}
	case value.KVector:
		for _, e := range v.Vec.Elems {
			if !deep(e) {
				return false
			}
		}
	case value.KArray:
		for _, e := range v.Arr.Elems {
			if !deep(e) {
				return false
			}
		}
	}
	return true
}

// Instantiate rebinds the template for one session: a fresh file
// system holding copies of the recorded files, fresh global and captured
// cells initialized from the recorded snapshots, fresh action closures
// writing to opts.Out and recording into a fresh Instance, recorded
// analysis output replayed, and the recorded build-stat deltas credited
// to opts.Obs. The returned RuleSet is private to the caller and ready
// for Placer.Lower; runtime options (Out, Obs) are honoured, build
// options (Interpret, NoIROpt, Adaptive) must match the ones the
// template was built with — callers key their cache on them. A
// caller-supplied FS is an error: such builds are never recorded.
func (t *Template) Instantiate(opts Options) (*placement.RuleSet, *Instance, error) {
	if opts.FS != nil {
		return nil, nil, fmt.Errorf("cinnamon: internal: template instantiated with a caller-supplied file system")
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	fs := interp.NewFS()
	for _, f := range t.files {
		h := fs.Open(f.name)
		h.Lines = slices.Clone(f.lines)
		h.ReadPos = f.readPos
	}
	it := interp.New(t.tool.Info, out, fs)
	glob := interp.NewEnv(nil)
	for _, g := range t.globals {
		glob.Define(g.name, instantiateValue(g.val, fs))
	}
	inst := &Instance{interp: it, globals: glob}
	if len(t.out) > 0 {
		if _, err := out.Write(t.out); err != nil {
			return nil, nil, err
		}
	}
	if opts.Obs != nil {
		stats := t.stats
		opts.Obs.MutateBuild(func(b *obs.BuildStats) { addBuildDeltas(b, stats) })
	}

	bound := make(map[*placement.Action]*placement.Action, len(t.actions))
	for proto, ar := range t.actions {
		na, err := t.bindAction(proto, ar, glob, out, inst)
		if err != nil {
			return nil, nil, err
		}
		bound[proto] = na
	}

	rs := &placement.RuleSet{}
	for _, rr := range t.rules {
		if len(rr.merged) > 0 {
			parts := make([]*placement.Rule, len(rr.merged))
			for i, pr := range rr.merged {
				parts[i] = pr.build(bound)
			}
			rs.Add(placement.MergeRun(parts))
			continue
		}
		rs.Add(rr.build(bound))
	}

	resolveGlobal := func(ref compile.CellRef) (*value.Value, error) {
		if v := glob.Lookup(ref.Name); v != nil {
			return v, nil
		}
		return nil, fmt.Errorf("cinnamon: internal: unresolved global %q", ref.Name)
	}
	for _, body := range t.tool.Code.Inits {
		b, err := body.Bind(resolveGlobal, out)
		if err != nil {
			return nil, nil, err
		}
		rs.Inits = append(rs.Inits, func() { inst.record(b.Exec(nil)) })
	}
	for _, body := range t.tool.Code.Exits {
		b, err := body.Bind(resolveGlobal, out)
		if err != nil {
			return nil, nil, err
		}
		rs.Finis = append(rs.Finis, func() { inst.record(b.Exec(nil)) })
	}
	return rs, inst, nil
}

// build materializes one recorded rule against the session's rebound
// actions.
func (rr ruleRec) build(bound map[*placement.Action]*placement.Action) *placement.Rule {
	return &placement.Rule{
		Trigger: rr.trigger, Inst: rr.inst, Block: rr.block, From: rr.from,
		Action: bound[rr.action], Mechanism: rr.mech,
		Where: rr.where, Group: rr.group,
	}
}

// bindAction replays compiledExec for one recorded action: same body,
// equal captured values in fresh cells, globals resolved to the new
// session's shared slots.
func (t *Template) bindAction(proto *placement.Action, ar *actionRec, glob *interp.Env, out io.Writer, inst *Instance) (*placement.Action, error) {
	body := t.tool.Code.Actions[ar.act]
	if body == nil {
		return nil, fmt.Errorf("cinnamon: internal: uncompiled action at %s", ar.act.Pos())
	}
	resolve := func(ref compile.CellRef) (*value.Value, error) {
		if ref.Global {
			if v := glob.Lookup(ref.Name); v != nil {
				return v, nil
			}
			return nil, fmt.Errorf("cinnamon: internal: unresolved global %q", ref.Name)
		}
		v, ok := ar.caps[ref.Name]
		if !ok {
			return nil, fmt.Errorf("cinnamon: internal: unrecorded capture %q at %s", ref.Name, ar.act.Pos())
		}
		cell := new(value.Value)
		*cell = instantiateValue(v, inst.interp.FS)
		return cell, nil
	}
	b, err := body.Bind(resolve, out)
	if err != nil {
		return nil, err
	}
	a := &placement.Action{
		Label:       proto.Label,
		Cost:        proto.Cost,
		Simple:      proto.Simple,
		Sample:      proto.Sample,
		DynAttrs:    proto.DynAttrs,
		NumCaptured: proto.NumCaptured,
		Inline:      inlineInfo(b, inst),
	}
	a.Exec = func(dyn []value.Value) {
		if err := b.Exec(dyn); err != nil {
			inst.record(err)
		}
	}
	return a, nil
}
