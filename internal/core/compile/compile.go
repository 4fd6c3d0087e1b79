// Package compile implements Cinnamon's closure-compilation stage: the
// pipeline step between semantic analysis and instrumentation that turns
// action and init/exit bodies, and every command's instrumentation-time
// analysis code, into pre-bound Go closures over slot-resolved frames.
//
// The tree-walking interpreter (internal/core/interp) re-dispatches on AST
// node types and chases map-backed scope chains on every evaluation: in
// the execution stage once per probe firing (billions of times on the
// Figure 13 workloads), and in the instrumentation stage once per
// control-flow element a command visits — a fresh scope per instance and
// a where clause re-walked each time. Closure compilation pays the
// translation cost once, at tool-compile time, the same philosophy as the
// trace caches of the dynamic frameworks Cinnamon targets:
//
//   - a resolver pass assigns every identifier a slot: numeric body-locals
//     become int64 registers and every other local a Value slot of the
//     frame; free variables become cells (captured analysis data, copied by
//     value at placement time, or shared tool globals); dynamic attributes
//     become indices into the probe's materialized attribute slots; static
//     attributes resolve to their readers; and numeric static attributes of
//     a CFE variable in an action body become bind-time constants that Bind
//     resolves once per placement;
//   - one lowering pass turns every statement and expression into a
//     pre-bound closure whose representation follows the expression's
//     static type: a numeric expression is an unboxed int64 operand (a leaf
//     its consumer reads in place — literal, register, constant, cell or
//     dynamic attribute — or a closure), a condition a bool closure, and
//     only strings, lines, opcodes, operands, CFEs, containers and files
//     are Value closures; one boxing, AsInt or AsBool step joins two
//     representations where they meet (lower.go, expr.go).
//
// Every compiled body therefore has one executor, Bound.Exec, with no AST
// dispatch, no map lookups and no per-firing allocation on its numeric
// paths. An additive body also gets a counter flush (Bound.CounterShape,
// counter.go), which lets the VM apply n firings at once.
//
// A command's analysis code — its where clause, analysis statements and
// the static where clauses of its actions — is lowered the same way over
// one frame per command (walk.go), which the engine's walk reuses across
// the command's CFE instances (Walk, Frame).
//
// Compiled code must be observationally identical to the interpreter —
// same output, same runtime errors (message and position), same cost-model
// numbers, build statistics and rule tables; the equivalence tests in this
// package and internal/core/backend and the conformance sweep enforce
// this.
package compile

import (
	"io"

	"repro/internal/core/ast"
	"repro/internal/core/sem"
	"repro/internal/core/types"
	"repro/internal/core/value"
)

// CellRef names one free variable of a compiled body and how to bind it:
// globals resolve to the tool's shared cells, captures are copied by value
// from the instrumentation-time scope at placement time.
type CellRef struct {
	Name   string
	Global bool
}

// Body is one compiled action or init/exit body: closure chains plus the
// frame layout they were resolved against.
type Body struct {
	// Cells lists the body's free variables in bind order.
	Cells []CellRef
	// DynAttrs is the dynamic-attribute slot layout (the action's
	// sem.ActionInfo.DynAttrs, in the same order the backends materialize).
	DynAttrs []sem.DynAttr

	// nLocals and nRegs count the frame's Value slots and the int64
	// registers of its numeric locals.
	nLocals, nRegs int
	// consts are the body's bind-time constants, which Bind resolves into
	// the registers after the locals'.
	consts []bindConst
	// guard is the compiled dynamic constraint (nil if none); it runs
	// before the body on every firing.
	guard boolFn
	stmts []stmtFn
	// counter lists the bumps of an additive body in statement order
	// (nil when the body is not additive; see classifyCounter).
	counter []counterTerm
}

// frame is the execution state of one body invocation: bound cells, the
// local slots (Values for non-numeric locals, int64 registers for numeric
// ones, followed by the bind-time constants), the probe's materialized
// dynamic attributes, and the tool output writer.
type frame struct {
	cells  []*value.Value
	locals []value.Value
	regs   []int64
	dyn    []value.Value
	out    io.Writer
}

// stmtFn executes one compiled statement.
type stmtFn func(fr *frame) error

// exprFn evaluates one compiled expression to a boxed value.
type exprFn func(fr *frame) (value.Value, error)

// boolFn evaluates a condition to its truth coercion.
type boolFn func(fr *frame) (bool, error)

// intFn evaluates a numeric expression to its integer coercion.
type intFn func(fr *frame) (int64, error)

// Bound is a placed body: cells resolved, constants filled, local frame
// allocated. Exec may be called many times (once per probe firing); the
// local frame is reused across firings — every local is (re)declared
// before use, so no stale state is observable — which makes steady-state
// execution allocation-free outside print. A Bound is not safe for concurrent use;
// probes of one VM fire sequentially, which is the only way the engine
// calls it.
type Bound struct {
	body *Body
	fr   frame
}

// Bind places the body on its cells, one per Cells entry in that order,
// resolves its bind-time constants and allocates its local frame. out
// receives print() output.
func (b *Body) Bind(cells []*value.Value, out io.Writer) *Bound {
	bd := &Bound{body: b, fr: frame{cells: cells, out: out}}
	if b.nLocals > 0 {
		bd.fr.locals = make([]value.Value, b.nLocals)
	}
	if n := b.nRegs + len(b.consts); n > 0 {
		bd.fr.regs = make([]int64, n)
	}
	for i, k := range b.consts {
		n, ok := k.resolve(cells[k.cell])
		if !ok {
			// Without its constant registers the body reads every
			// constant through its attribute, which reports the failure.
			bd.fr.regs = bd.fr.regs[:b.nRegs]
			break
		}
		bd.fr.regs[b.nRegs+i] = n
	}
	return bd
}

// Additive reports, without binding, whether a placement whose captured
// cells hold caps (aligned with Cells; global entries are not read) gets
// a counter flush from Bind: the body is additive and each of its
// bind-time constants resolves.
func (b *Body) Additive(caps []value.Value) bool {
	if b.counter == nil {
		return false
	}
	for _, k := range b.consts {
		if _, ok := k.resolve(&caps[k.cell]); !ok {
			return false
		}
	}
	return true
}

// Exec runs the bound body with the probe's materialized dynamic attribute
// values (indexed per Body.DynAttrs). The first runtime error aborts the
// invocation and is returned.
func (b *Bound) Exec(dyn []value.Value) error {
	fr := &b.fr
	fr.dyn = dyn
	if g := b.body.guard; g != nil {
		ok, err := g(fr)
		if err != nil || !ok {
			return err
		}
	}
	for _, st := range b.body.stmts {
		if err := st(fr); err != nil {
			return err
		}
	}
	return nil
}

// CounterShape reports whether the bound body is additive (see
// classifyCounter) with its constants resolved and, if so, returns a flush
// function such that n consecutive firings leave every observable equal to
// one flush(n) call: each bump's target gains n times its addend. A
// captured addend is read at flush time, which is safe because it is
// private to this placement and the body never assigns it.
func (b *Bound) CounterShape() (flush func(n int64), ok bool) {
	terms := b.body.counter
	if terms == nil || len(b.fr.regs) < b.body.nRegs+len(b.body.consts) {
		return nil, false
	}
	cells, regs := b.fr.cells, b.fr.regs
	return func(n int64) {
		for _, t := range terms {
			k := t.k
			switch {
			case t.kCell >= 0:
				k = asIntRef(cells[t.kCell])
			case t.kReg >= 0:
				k = regs[t.kReg]
			}
			if t.neg {
				k = -k
			}
			c := cells[t.cell]
			if t.elem >= 0 {
				c = &c.Arr.Elems[t.elem]
			}
			*c = value.Value{Kind: value.KInt, Int: asIntRef(c) + n*k}
		}
	}, true
}

// Program is the compiled form of a whole tool: one Body per action and per
// init/exit block, and the compiled instrumentation-time walk (walk.go).
// It is immutable after Compile and safe for concurrent Bind and NewWalk
// calls from parallel instrumentation runs.
type Program struct {
	// Actions maps each action node to its compiled body.
	Actions map[*ast.Action]*Body
	// Inits and Exits parallel sem.Info.Inits / Info.Exits.
	Inits, Exits []*Body
	// Commands parallels sem.Info.Commands: each top-level command's
	// walk step.
	Commands []*Command
	// commands lists every command, nested ones included, by frame
	// index.
	commands []*Command
}

// Compile lowers every action and init/exit body and every command's
// analysis code of a checked program. prog must have passed sem.Check
// with the given info.
func Compile(prog *ast.Program, info *sem.Info) (*Program, error) {
	cp := &Program{Actions: make(map[*ast.Action]*Body)}
	rebound := arrayRebinds(prog, info)
	// All globals are visible to every body: the engine declares them
	// before anything executes, so even a body placed earlier in source
	// order resolves a later global. Command-scope names, by contrast,
	// become visible in source order (see compileCommand).
	globals := &outerScope{names: make(map[string]int, len(info.Globals))}
	for i, d := range info.Globals {
		globals.names[d.Name] = i
	}
	for _, item := range prog.Items {
		switch it := item.(type) {
		case *ast.InitBlock:
			cp.Inits = append(cp.Inits, compileBody(info, nil, it.Body, nil, globals, rebound))
		case *ast.ExitBlock:
			cp.Exits = append(cp.Exits, compileBody(info, nil, it.Body, nil, globals, rebound))
		case *ast.Command:
			cc, err := cp.compileCommand(info, it, globals, rebound)
			if err != nil {
				return nil, err
			}
			cp.Commands = append(cp.Commands, cc)
		}
	}
	return cp, nil
}

// arrayRebinds names every variable that some statement of the program
// binds to a whole array value: an array assignment or an initialized
// array declaration. Only such a binding can change an array's length,
// so a constant index in range of any other array's declared length
// stays in range for good. Names are matched without scoping, which
// errs towards listing too many.
func arrayRebinds(prog *ast.Program, info *sem.Info) map[string]bool {
	names := make(map[string]bool)
	decl := func(d *ast.VarDecl) {
		if t := info.DeclTypes[d]; t != nil && t.Kind == types.Array && d.Init != nil {
			names[d.Name] = true
		}
	}
	visit := func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.DeclStmt:
			decl(st.Decl)
		case *ast.AssignStmt:
			if t := info.Types[st.LHS]; t != nil && t.Kind == types.Array {
				if id, ok := st.LHS.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
		}
	}
	var walkCmd func(items []ast.CmdItem)
	walkCmd = func(items []ast.CmdItem) {
		for _, it := range items {
			switch x := it.(type) {
			case *ast.Command:
				walkCmd(x.Body)
			case *ast.Action:
				ast.WalkStmts(x.Body, visit, nil)
			default:
				ast.WalkStmts([]ast.Stmt{x}, visit, nil)
			}
		}
	}
	for _, item := range prog.Items {
		switch it := item.(type) {
		case *ast.VarDecl:
			decl(it)
		case *ast.InitBlock:
			ast.WalkStmts(it.Body, visit, nil)
		case *ast.ExitBlock:
			ast.WalkStmts(it.Body, visit, nil)
		case *ast.Command:
			walkCmd(it.Body)
		}
	}
	return names
}

// outerScope is a compile-time scope outside the body being compiled: the
// global scope or one enclosing command's scope.
type outerScope struct {
	parent *outerScope
	// names maps each name to where it lives: its slot in cmd's frame,
	// or for the global scope its index in sem.Info.Globals.
	names map[string]int
	// cmd is the command whose frame holds the names; nil for the
	// global scope.
	cmd *Command
}

// resolve finds the scope that binds name.
func (s *outerScope) resolve(name string) (*outerScope, bool) {
	for o := s; o != nil; o = o.parent {
		if _, ok := o.names[name]; ok {
			return o, true
		}
	}
	return nil, false
}

// compiler carries the per-body lowering state.
type compiler struct {
	info  *sem.Info
	outer *outerScope

	cells   []CellRef
	cellIdx map[cellKey]int
	// locs says where each cell lives in a walk (see Command.cells).
	locs []slotRef
	dyn  []sem.DynAttr
	// walk marks a command's analysis code, whose CFE cells change with
	// every instance, so static attributes are read where they are used
	// instead of becoming bind-time constants.
	walk bool

	// nLocals counts the Value slots defined so far; nRegs is the number
	// of numeric locals' registers, counted up front, and nextReg the
	// next one to define.
	nLocals, nRegs, nextReg int
	scope                   *localScope

	// rebound names the arrays the program rebinds, and consts collects
	// the body's bind-time constants.
	rebound map[string]bool
	consts  []bindConst
}

// localScope is a body-local lexical scope (if/for bodies open new ones).
type localScope struct {
	parent *localScope
	names  map[string]slot
}

// cellKey identifies one free variable: the scope binding it and its
// name. A command's analysis code can name a global and, after a
// top-level declaration shadows it, the command's own variable.
type cellKey struct {
	scope *outerScope
	name  string
}

func newCompiler(info *sem.Info, dyn []sem.DynAttr, outer *outerScope, rebound map[string]bool) *compiler {
	return &compiler{info: info, outer: outer, cellIdx: make(map[cellKey]int), dyn: dyn, rebound: rebound}
}

func compileBody(info *sem.Info, dyn []sem.DynAttr, body []ast.Stmt, guard ast.Expr, outer *outerScope, rebound map[string]bool) *Body {
	c := newCompiler(info, dyn, outer, rebound)
	// Count the numeric locals' registers first: the constants' registers
	// follow them.
	ast.WalkStmts(body, func(s ast.Stmt) {
		if d, ok := s.(*ast.DeclStmt); ok && c.info.DeclTypes[d.Decl] != nil && c.info.DeclTypes[d.Decl].IsNumeric() {
			c.nRegs++
		}
	}, nil)
	c.pushScope()
	b := &Body{DynAttrs: dyn}
	if guard != nil {
		// The guard runs in the placement scope before any body locals
		// exist; compiling it first keeps its resolution body-independent.
		b.guard = c.cond(guard)
	}
	b.stmts = c.stmts(body)
	if guard == nil {
		b.counter = c.classifyCounter(body)
	}
	b.Cells, b.nLocals, b.nRegs, b.consts = c.cells, c.nLocals, c.nRegs, c.consts
	return b
}

func (c *compiler) pushScope() {
	c.scope = &localScope{parent: c.scope, names: make(map[string]slot)}
}

func (c *compiler) popScope() { c.scope = c.scope.parent }

// slotKind says where a resolved identifier lives.
type slotKind uint8

const (
	slotCell  slotKind = iota // a bound cell
	slotLocal                 // a body-local Value slot
	slotReg                   // a numeric body-local's int64 register
)

// slot is a resolved identifier: its storage and index there.
type slot struct {
	kind slotKind
	idx  int
}

// defineLocal assigns a fresh slot for a body-local declaration of type
// t: a register when t is numeric, a Value slot otherwise. Shadowed names
// get distinct slots, matching the interpreter's nested frames.
func (c *compiler) defineLocal(name string, t *types.Type) slot {
	sl := slot{kind: slotLocal, idx: c.nLocals}
	if t.IsNumeric() {
		sl = slot{kind: slotReg, idx: c.nextReg}
		c.nextReg++
	} else {
		c.nLocals++
	}
	c.scope.names[name] = sl
	return sl
}

func (c *compiler) resolve(name string) (slot, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if sl, ok := s.names[name]; ok {
			return sl, true
		}
	}
	if o, ok := c.outer.resolve(name); ok {
		key := cellKey{o, name}
		if i, ok := c.cellIdx[key]; ok {
			return slot{idx: i}, true
		}
		i := len(c.cells)
		loc := slotRef{frame: -1, slot: o.names[name]}
		if o.cmd != nil {
			loc.frame = o.cmd.index
		}
		c.cells = append(c.cells, CellRef{Name: name, Global: o.cmd == nil})
		c.locs = append(c.locs, loc)
		c.cellIdx[key] = i
		return slot{idx: i}, true
	}
	return slot{}, false
}

// cellOf resolves a directly-named cell — a container or CFE variable;
// false for any other expression.
func (c *compiler) cellOf(e ast.Expr) (int, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	sl, ok := c.resolve(id.Name)
	return sl.idx, ok && sl.kind == slotCell
}

// untyped stands for the type of an expression sem left untyped.
var untyped = &types.Type{Kind: types.Invalid}

// typeOf is e's static type.
func (c *compiler) typeOf(e ast.Expr) *types.Type {
	if t := c.info.Types[e]; t != nil {
		return t
	}
	return untyped
}

// dynSlot resolves a dynamic attribute use to its materialized-value slot.
func (c *compiler) dynSlot(varName, attr string) (int, bool) {
	for i, da := range c.dyn {
		if da.Var == varName && da.Attr == attr {
			return i, true
		}
	}
	return 0, false
}
