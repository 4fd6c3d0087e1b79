package engine

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/cfg"
	"repro/internal/core/compile"
	"repro/internal/core/interp"
	"repro/internal/core/placement"
	"repro/internal/core/value"
	"repro/internal/obs"
)

// The rule template: the session-independent half of an instrumentation
// build, recorded once and instantiated per session. It is the only way a
// compiled build is made: the first session of a template instantiates
// it right after recording, exactly as later ones do.
//
// The walk is deterministic for a given (tool, program, placer, engine
// options) — it enumerates CFEs in a fixed order, static where clauses
// resolve from by-value snapshots, and the optimization passes are pure
// table rewrites — and on the compiled path it binds nothing. A Template
// holds the post-pass rule structure (mechanisms, merged runs, actions
// without closures) plus immutable snapshots of everything a binding
// consumes: final global values, each placed action's captured values,
// analysis-time output and build-stat deltas. Instantiate makes the
// session: fresh cells, fresh closures, a fresh Instance. Per-session
// mutable state (probe IDs, counters, VM memory) lives in the collector
// and VM.
//
// Tool files are session state too: analysis code may write them
// (Figure 9 records every function entry for its init block to read), so
// the template records each file's lines and read cursor, and every
// instantiation gets a fresh file system holding copies, with file
// globals and captures rebound to the fresh handles by name.
//
// A recorded value needs one value.Copy to be private: the language has
// no containers of containers, and files are rebound by name. Only the
// interpreter path (Options.Interpret), the reference the compiled path
// is held to, binds during its walk and has no template.

// actionRec is one placed action's binding record.
type actionRec struct {
	body *compile.Body
	// caps holds the recorded value of each captured cell, aligned with
	// body.Cells (global cells' entries are unused; see recordValue), or
	// is nil when the body captures nothing. Never handed out directly:
	// Instantiate copies per session.
	caps []value.Value
}

// fileRec is one tool file's analysis-time contents and read cursor.
type fileRec struct {
	name    string
	lines   []string
	readPos int
}

// Template is a recorded instrumentation build, shareable read-only
// across sessions; it holds no session state. Instantiate may be called
// concurrently.
type Template struct {
	tool *CompiledTool
	// globals are the final analysis-time global values, aligned with
	// tool.Info.Globals.
	globals []value.Value
	files   []fileRec
	out     []byte
	stats   obs.BuildStats
	actions map[*placement.Action]*actionRec
	// rules are the post-pass rules in table order; nothing mutates a
	// rule after placement.Apply. Their actions carry no closures and
	// key actions.
	rules []*placement.Rule
}

// BuildTemplate walks the program for the tool's compiled bodies,
// recording a reusable Template; Options.Interpret is not consulted. The
// walk's analysis output is recorded rather than written, and written to
// opts.Out only when the walk fails; Instantiate writes it for each
// session, as it credits the build-stat deltas to opts.Obs.
func BuildTemplate(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*Template, error) {
	var out bytes.Buffer
	rec := opts
	rec.Out, rec.Obs, rec.Interpret = &out, obs.New(obs.Options{}), false
	e, err := walk(tool, prog, placer, rec)
	if err != nil {
		if opts.Out != nil {
			// The walk's error is the one to report.
			_, _ = opts.Out.Write(out.Bytes())
		}
		return nil, err
	}
	t := &Template{
		tool:    tool,
		out:     out.Bytes(),
		stats:   rec.Obs.Snapshot("").Build,
		actions: e.actions,
		rules:   e.rs.Rules(),
	}
	fs := e.in.FS
	for _, name := range fs.Names() {
		f := fs.Open(name)
		t.files = append(t.files, fileRec{name: name, lines: slices.Clone(f.Lines), readPos: f.ReadPos})
	}
	t.globals = make([]value.Value, len(tool.Info.Globals))
	for i, d := range tool.Info.Globals {
		t.globals[i] = recordValue(*e.glob.Lookup(d.Name))
	}
	return t, nil
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

// recordValue snapshots one global or captured value for the template:
// a file handle becomes a detached handle naming its file (instantiation
// rebinds it to the session's copy), a CFE a copy of the instance it
// names (the walk overwrites its frames' instances), anything else a
// private copy.
func recordValue(v value.Value) value.Value {
	switch v.Kind {
	case value.KFile:
		return value.Value{Kind: value.KFile, File: &value.FileVal{Name: v.File.Name}}
	case value.KCFE:
		ref := *v.CFE
		return value.CFEVal(&ref)
	}
	return value.Copy(v)
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

// Instantiate binds the template for one session: a fresh file system
// holding copies of the recorded files, fresh global and captured cells
// initialized from the recorded snapshots, fresh action closures writing
// to opts.Out and recording into a fresh Instance, recorded analysis
// output written to opts.Out, and the recorded build-stat deltas credited
// to opts.Obs. The returned RuleSet is private to the caller and ready
// for Placer.Lower; runtime options (Out, Obs) are honoured, build
// options (NoIROpt, Adaptive) must match the ones the template was built
// with — callers key their cache on them.
func (t *Template) Instantiate(opts Options) (*placement.RuleSet, *Instance, error) {
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
	vals := make([]value.Value, len(t.globals))
	glob := make(map[string]*value.Value, len(t.globals))
	for i, d := range t.tool.Info.Globals {
		vals[i] = instantiateValue(t.globals[i], fs)
		glob[d.Name] = &vals[i]
	}
	if len(t.out) > 0 {
		if _, err := out.Write(t.out); err != nil {
			return nil, nil, err
		}
	}
	if opts.Obs != nil {
		stats := t.stats
		opts.Obs.MutateBuild(func(b *obs.BuildStats) { addBuildDeltas(b, stats) })
	}

	// Each rule is copied with its action bound; an action placed by
	// several rules is bound once.
	s := session{glob: glob, fs: fs, out: out, inst: &Instance{}}
	bound := make(map[*placement.Action]*placement.Action, len(t.actions))
	bind := func(r *placement.Rule) (*placement.Rule, error) {
		a := bound[r.Action]
		if a == nil {
			na := *r.Action
			a = &na
			if err := s.action(a, t.actions[r.Action]); err != nil {
				return nil, err
			}
			bound[r.Action] = a
		}
		nr := *r
		nr.Action = a
		return &nr, nil
	}
	rs := &placement.RuleSet{}
	for _, r := range t.rules {
		if len(r.Merged) == 0 {
			nr, err := bind(r)
			if err != nil {
				return nil, nil, err
			}
			rs.Add(nr)
			continue
		}
		// A merged rule is fused from its bound constituents, so the
		// fused closures bind to this session's cells.
		parts := make([]*placement.Rule, len(r.Merged))
		for i, p := range r.Merged {
			np, err := bind(p)
			if err != nil {
				return nil, nil, err
			}
			parts[i] = np
		}
		rs.Add(placement.MergeRun(parts))
	}
	var err error
	if rs.Inits, err = s.blocks(t.tool.Code.Inits); err != nil {
		return nil, nil, err
	}
	if rs.Finis, err = s.blocks(t.tool.Code.Exits); err != nil {
		return nil, nil, err
	}
	return rs, s.inst, nil
}

// session binds compiled bodies into one instantiated session: globals
// resolve to the session's shared slots, each capture to a fresh cell
// holding a copy of its recorded value, print() output goes to out and
// runtime errors are recorded into inst.
type session struct {
	glob map[string]*value.Value
	fs   *interp.FS
	out  io.Writer
	inst *Instance
}

// bind binds one compiled body; caps holds its captures' recorded
// values, aligned with body.Cells (nil for a body that captures nothing).
func (s session) bind(body *compile.Body, caps []value.Value) (*compile.Bound, error) {
	cells := make([]*value.Value, len(body.Cells))
	for i, c := range body.Cells {
		switch {
		case c.Global:
			if cells[i] = s.glob[c.Name]; cells[i] == nil {
				return nil, fmt.Errorf("cinnamon: internal: unresolved global %q", c.Name)
			}
		case i < len(caps):
			v := instantiateValue(caps[i], s.fs)
			cells[i] = &v
		default:
			return nil, fmt.Errorf("cinnamon: internal: unresolved capture %q", c.Name)
		}
	}
	return body.Bind(cells, s.out), nil
}

// action binds a recorded action body as a's executor, Exec, and the
// counter flush its Tier promises (Flush; nil unless the placement is
// additive). Every firing runs the closure chain on the reused frame.
func (s session) action(a *placement.Action, ar *actionRec) error {
	bound, err := s.bind(ar.body, ar.caps)
	if err != nil {
		return err
	}
	inst := s.inst
	a.Exec = func(dyn []value.Value) {
		if err := bound.Exec(dyn); err != nil {
			inst.record(err)
		}
	}
	a.Flush, _ = bound.CounterShape()
	return nil
}

// blocks binds the init or exit bodies, which capture nothing.
func (s session) blocks(bodies []*compile.Body) ([]func(), error) {
	var fns []func()
	for _, body := range bodies {
		bound, err := s.bind(body, nil)
		if err != nil {
			return nil, err
		}
		inst := s.inst
		fns = append(fns, func() { inst.record(bound.Exec(nil)) })
	}
	return fns, nil
}
