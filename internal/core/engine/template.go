package engine

import (
	"bytes"
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
// Every compiled build records a template; only the interpreter path
// (Options.Interpret) has no compiled bodies to rebind and records none.
// A recorded value needs one value.Copy to be private: the language has
// no containers of containers, and files are rebound by name.

// templateRec accumulates recording state during one buildRules walk.
type templateRec struct {
	// col is a private collector: the walk and the passes bump their
	// build stats here so the template knows the exact deltas to replay
	// per instantiation (the caller's collector gets them merged in
	// afterwards).
	col *obs.Collector
	// analysisOut tees the analysis-time tool output.
	analysisOut bytes.Buffer
	// actions maps each placed Action to its compiled body and captured
	// values.
	actions map[*placement.Action]*actionRec
}

// actionRec is one placed action's rebind record.
type actionRec struct {
	body *compile.Body
	// caps holds the non-global free variables of the compiled body,
	// by name, recorded at the cold bind (see recordValue). Never handed
	// out directly: Instantiate copies per session.
	caps map[string]value.Value
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
	// rules are the cold build's post-pass rules in table order; nothing
	// mutates a rule after placement.Apply. Their actions are the cold
	// session's and key actions.
	rules []*placement.Rule
}

// BuildTemplate runs BuildRules while recording a reusable Template.
// It returns the cold build's own RuleSet and Instance — identical to
// what BuildRules would have produced — plus the Template, which is nil
// only under Options.Interpret. The RuleSet must still be lowered and
// used by the calling session as usual.
func BuildTemplate(tool *CompiledTool, prog *cfg.Program, placer Placer, opts Options) (*Template, *placement.RuleSet, *Instance, error) {
	if opts.Interpret {
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
	t := &Template{
		tool:    tool,
		prog:    prog,
		out:     rec.analysisOut.Bytes(),
		stats:   stats,
		actions: rec.actions,
		rules:   slices.Clone(rs.Rules()),
	}
	fs := inst.interp.FS
	for _, name := range fs.Names() {
		f := fs.Open(name)
		t.files = append(t.files, fileRec{name: name, lines: slices.Clone(f.Lines), readPos: f.ReadPos})
	}
	for _, d := range tool.Info.Globals {
		t.globals = append(t.globals, globalRec{name: d.Name, val: recordValue(*inst.globals.Lookup(d.Name))})
	}
	return t, rs, inst, nil
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
// rebinds it to the session's copy), anything else a private copy.
func recordValue(v value.Value) value.Value {
	if v.Kind == value.KFile {
		return value.Value{Kind: value.KFile, File: &value.FileVal{Name: v.File.Name}}
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

// Instantiate rebinds the template for one session: a fresh file
// system holding copies of the recorded files, fresh global and captured
// cells initialized from the recorded snapshots, fresh action closures
// writing to opts.Out and recording into a fresh Instance, recorded
// analysis output replayed, and the recorded build-stat deltas credited
// to opts.Obs. The returned RuleSet is private to the caller and ready
// for Placer.Lower; runtime options (Out, Obs) are honoured, build
// options (Interpret, NoIROpt, Adaptive) must match the ones the
// template was built with — callers key their cache on them.
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

	// Each rule is copied with its action rebound; an action placed by
	// several rules is bound once.
	bd := binder{glob: glob, out: out, inst: inst}
	bound := make(map[*placement.Action]*placement.Action, len(t.actions))
	rebind := func(r *placement.Rule) (*placement.Rule, error) {
		a := bound[r.Action]
		if a == nil {
			ar := t.actions[r.Action]
			na := *r.Action
			a = &na
			if err := bd.action(a, ar.body, func(name string) (value.Value, bool) {
				v, ok := ar.caps[name]
				return instantiateValue(v, fs), ok
			}); err != nil {
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
			nr, err := rebind(r)
			if err != nil {
				return nil, nil, err
			}
			rs.Add(nr)
			continue
		}
		// A merged rule is re-fused from its rebound constituents, so
		// the fused closures bind to this session's cells.
		parts := make([]*placement.Rule, len(r.Merged))
		for i, p := range r.Merged {
			np, err := rebind(p)
			if err != nil {
				return nil, nil, err
			}
			parts[i] = np
		}
		rs.Add(placement.MergeRun(parts))
	}
	var err error
	if rs.Inits, err = bd.blocks(t.tool.Code.Inits); err != nil {
		return nil, nil, err
	}
	if rs.Finis, err = bd.blocks(t.tool.Code.Exits); err != nil {
		return nil, nil, err
	}
	return rs, inst, nil
}
