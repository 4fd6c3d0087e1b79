package compile

// The compiled instrumentation-time walk. Every command's analysis code —
// its where clause, its analysis statements and the static where clauses
// of its actions — is lowered once, like an action body, over one slot
// frame per command: slot 0 holds the command's CFE variable and each
// top-level analysis declaration gets the next slot. A declaration nested
// in an analysis if or for body is a local of the command's code, as in
// an action body. Every name the code reads outside its locals is a cell:
// a slot of this or an enclosing command's frame, or a global.
//
// A Walk allocates each command's frame once and binds the cells once;
// the engine then reuses the frame for every instance of the command,
// writing the instance into the frame's CFE slot. Nothing is allocated per
// instance: re-running a top-level declaration re-initializes its slot,
// and compile-time scoping in source order means no code reads a slot
// before this instance has declared it.

import (
	"fmt"
	"io"

	"repro/internal/core/ast"
	"repro/internal/core/interp"
	"repro/internal/core/sem"
	"repro/internal/core/value"
)

// Command is one command of the compiled walk: its where clause and
// analysis statements lowered over the command's frame.
type Command struct {
	Cmd *ast.Command
	// Items parallels Cmd.Body: a nested command, a placed action, or an
	// analysis statement (both fields nil), which Frame.Exec runs.
	Items []Item

	// index is the command's frame in a Walk; slots is its frame size.
	index, slots int
	// cells locates the analysis code's free variables, in cell order.
	cells []slotRef
	// nLocals and nRegs size the analysis code's locals.
	nLocals, nRegs int
	// where is the lowered command constraint (nil if none), and stmts
	// the analysis statements, aligned with Items.
	where boolFn
	stmts []stmtFn
}

// Item is one element of a command body.
type Item struct {
	Command *Command
	Site    *Site
}

// Site is one action as the compiled walk places it: its compiled body,
// its static where clause lowered over the enclosing command's frame,
// and the frame cells holding its target and its captures.
type Site struct {
	Act  *ast.Action
	Body *Body
	// where is the static constraint (nil if none or dynamic).
	where boolFn
	// target is the cell holding the target CFE; caps, aligned with
	// Body.Cells, the cell holding each capture (unused for globals).
	target int
	caps   []int
}

// slotRef locates a variable in a walk: slot of command frame frame, or
// for frame -1 the global with that index in sem.Info.Globals.
type slotRef struct {
	frame, slot int
}

// compileCommand lowers cmd, nested commands and action bodies included.
// Names join the command's scope in source order, as the interpreter
// defines them: the CFE variable first, then each top-level declaration
// where it stands, visible to the analysis code, nested commands and
// actions after it.
func (cp *Program) compileCommand(info *sem.Info, cmd *ast.Command, parent *outerScope, rebound map[string]bool) (*Command, error) {
	cc := &Command{Cmd: cmd, index: len(cp.commands)}
	cp.commands = append(cp.commands, cc)
	scope := &outerScope{parent: parent, names: map[string]int{cmd.Var: 0}, cmd: cc}
	c := newCompiler(info, nil, scope, rebound)
	c.walk = true
	c.pushScope()
	if cmd.Where != nil {
		cc.where = c.cond(cmd.Where)
	}
	cc.Items = make([]Item, len(cmd.Body))
	cc.stmts = make([]stmtFn, len(cmd.Body))
	for i, item := range cmd.Body {
		switch it := item.(type) {
		case *ast.Command:
			nested, err := cp.compileCommand(info, it, scope, rebound)
			if err != nil {
				return nil, err
			}
			cc.Items[i].Command = nested
		case *ast.Action:
			site, err := cp.compileSite(info, c, it, scope, rebound)
			if err != nil {
				return nil, err
			}
			cc.Items[i].Site = site
		case *ast.DeclStmt:
			cc.stmts[i] = c.slotDecl(it.Decl, scope)
		case ast.Stmt:
			cc.stmts[i] = c.stmt(it)
		}
	}
	cc.slots = len(scope.names)
	cc.cells, cc.nLocals, cc.nRegs = c.locs, c.nLocals, c.nextReg
	return cc, nil
}

// compileSite compiles an action's body against the command scope as it
// stands at the action, and lowers its static where clause and the cells
// of its target and captures in the command's analysis code c.
func (cp *Program) compileSite(info *sem.Info, c *compiler, act *ast.Action, scope *outerScope, rebound map[string]bool) (*Site, error) {
	ai := info.Actions[act]
	if ai == nil {
		return nil, fmt.Errorf("cinnamon: internal: unchecked action at %s", act.Pos())
	}
	var guard ast.Expr
	if ai.WhereDynamic {
		guard = act.Where
	}
	body := compileBody(info, ai.DynAttrs, act.Body, guard, scope, rebound)
	cp.Actions[act] = body
	s := &Site{Act: act, Body: body, caps: make([]int, len(body.Cells))}
	if act.Where != nil && !ai.WhereDynamic {
		s.where = c.cond(act.Where)
	}
	cell := func(name string) (int, error) {
		sl, ok := c.resolve(name)
		if !ok || sl.kind != slotCell {
			return 0, fmt.Errorf("cinnamon: internal: unresolved capture %q", name)
		}
		return sl.idx, nil
	}
	var err error
	if s.target, err = cell(act.Target); err != nil {
		return nil, err
	}
	for i, ref := range body.Cells {
		if !ref.Global {
			if s.caps[i], err = cell(ref.Name); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// slotDecl lowers a top-level analysis declaration, which lives in the
// command frame: the initializer is compiled before the name joins the
// scope (a declaration sees the outer binding), and every instance
// re-runs the declaration, re-initializing the slot.
func (c *compiler) slotDecl(d *ast.VarDecl, scope *outerScope) stmtFn {
	t := c.info.DeclTypes[d]
	if t == nil {
		pos, name := d.P, d.Name
		return func(*frame) error {
			return errf(pos, "internal: declaration %s has no type", name)
		}
	}
	var num operand
	var init exprFn
	switch {
	case t.IsNumeric() && d.Init != nil:
		num = c.num(d.Init)
	case d.Init != nil:
		init = c.val(d.Init)
	}
	scope.names[d.Name] = len(scope.names)
	sl, _ := c.resolve(d.Name)
	idx := sl.idx
	switch {
	case t.IsNumeric() && d.Init != nil:
		return func(fr *frame) error {
			n, err := num.get(fr)
			if err != nil {
				return err
			}
			*fr.cells[idx] = value.Value{Kind: value.KInt, Int: n}
			return nil
		}
	case init != nil:
		return func(fr *frame) error {
			v, err := init(fr)
			if err != nil {
				return err
			}
			*fr.cells[idx] = interp.Convert(v, t)
			return nil
		}
	}
	return func(fr *frame) error {
		*fr.cells[idx] = interp.ZeroValue(t)
		return nil
	}
}

// Walk is one run of the compiled walk: a frame per command, its cells
// bound to the global cells and to the frames of the enclosing commands.
// A Walk is not safe for concurrent use.
type Walk struct {
	frames []Frame
}

// Frame is one command's frame in a walk, reused across the command's
// instances: the instance the walk is at, the command's slots, and the
// analysis code's cells and locals.
type Frame struct {
	cmd   *Command
	ref   value.CFERef
	slots []value.Value
	fr    frame
}

// NewWalk allocates and binds the frames of a walk. globals holds the
// global cells, aligned with sem.Info.Globals; out receives the analysis
// code's print() output.
func (p *Program) NewWalk(globals []*value.Value, out io.Writer) *Walk {
	w := &Walk{frames: make([]Frame, len(p.commands))}
	for i, cc := range p.commands {
		f := &w.frames[i]
		f.cmd = cc
		f.slots = make([]value.Value, cc.slots)
		f.slots[0] = value.CFEVal(&f.ref)
		f.fr = frame{out: out, locals: make([]value.Value, cc.nLocals), regs: make([]int64, cc.nRegs)}
	}
	for i := range w.frames {
		f := &w.frames[i]
		f.fr.cells = make([]*value.Value, len(f.cmd.cells))
		for j, loc := range f.cmd.cells {
			if loc.frame < 0 {
				f.fr.cells[j] = globals[loc.slot]
			} else {
				f.fr.cells[j] = &w.frames[loc.frame].slots[loc.slot]
			}
		}
	}
	return w
}

// Frame returns the command's frame.
func (w *Walk) Frame(c *Command) *Frame { return &w.frames[c.index] }

// Ref is the frame's CFE slot: the walk writes each instance of the
// command here before running the command's code on it.
func (f *Frame) Ref() *value.CFERef { return &f.ref }

// Selects evaluates the command's where clause on the current instance;
// true when it has none.
func (f *Frame) Selects() (bool, error) {
	if f.cmd.where == nil {
		return true, nil
	}
	return f.cmd.where(&f.fr)
}

// Exec runs analysis statement i of the command's body.
func (f *Frame) Exec(i int) error { return f.cmd.stmts[i](&f.fr) }

// Places evaluates the site's static where clause; true when it has
// none.
func (f *Frame) Places(s *Site) (bool, error) {
	if s.where == nil {
		return true, nil
	}
	return s.where(&f.fr)
}

// Target returns the CFE instance the site's action targets, owned by
// the frame that holds it and overwritten by its next instance.
func (f *Frame) Target(s *Site) *value.CFERef { return f.fr.cells[s.target].CFE }

// Capture returns the cell holding capture i of the site's body (i
// indexes Body.Cells and must not name a global).
func (f *Frame) Capture(s *Site, i int) *value.Value { return f.fr.cells[s.caps[i]] }
