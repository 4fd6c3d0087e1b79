// Package compile implements Cinnamon's closure-compilation stage: the
// pipeline step between semantic analysis and instrumentation that turns
// action and init/exit bodies into pre-bound Go closures over slot-resolved
// frames.
//
// The tree-walking interpreter (internal/core/interp) re-dispatches on AST
// node types and chases map-backed scope chains on every probe firing —
// fine for the instrumentation stage, where each command body runs once per
// control-flow element, but a real dispatch tax in the execution stage,
// where action bodies run once per probe firing (billions of times on the
// Figure 13 workloads). Closure compilation pays the translation cost once,
// at tool-compile time, the same philosophy as the trace caches of the
// dynamic frameworks Cinnamon targets:
//
//   - a resolver pass walks each body once and assigns every identifier a
//     slot: body-locals become indices into a flat []value.Value frame
//     (an []int64 register slice in the whole-body fast tier, fast.go),
//     free variables become cells (captured analysis data, copied by value
//     at placement time, or shared tool globals), dynamic attributes
//     become indices into the probe's materialized attribute slots, and,
//     in the fast tier, numeric static attributes of the command's CFE
//     become bind-time constants that Bind fills into registers;
//   - a lowering pass turns every statement and expression node into a
//     pre-bound closure, so executing a body is a chain of direct calls
//     with no AST dispatch, no map lookups, and no per-firing allocation;
//     leaf operands (literals, registers, cells, dynamic attributes) are
//     descriptors their consumer reads in place rather than closures.
//
// Compiled bodies must be observationally identical to the interpreter —
// same output, same runtime errors (message and position), same cost-model
// numbers; the equivalence tests in internal/core/backend enforce this.
package compile

import (
	"fmt"
	"io"
	"maps"
	"slices"

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
	// NumLocals is the body-local frame size.
	NumLocals int

	// guard is the compiled dynamic constraint (nil if none); it runs
	// before the body on every firing.
	guard exprFn
	stmts []stmtFn

	// fast is the whole-body fast lowering (nil when some construct has
	// no fast path); see fast.go. It runs on the same frame, its cells
	// resolved against the same table.
	fast *fastBody
}

// frame is the execution state of one body invocation: bound cells, the
// local slot frames (the generic lowering's Values and the fast tier's
// int64 registers), the probe's materialized dynamic attributes, and the
// tool output writer.
type frame struct {
	cells  []*value.Value
	locals []value.Value
	regs   []int64
	dyn    []value.Value
	out    io.Writer
}

// stmtFn executes one compiled statement.
type stmtFn func(fr *frame) error

// exprFn evaluates one compiled expression.
type exprFn func(fr *frame) (value.Value, error)

// Bound is a placed body: cells resolved, local frame allocated. Exec may
// be called many times (once per probe firing); the local frame is reused
// across firings — every local is (re)declared before use, so no stale
// state is observable — which makes steady-state execution allocation-free.
// A Bound is not safe for concurrent use; probes of one VM fire
// sequentially, which is the only way the engine calls it.
type Bound struct {
	body *Body
	fr   frame
	// hasFast is set when the body has a fast lowering and this
	// placement's bind-time constants resolved.
	hasFast bool
}

// Bind places the body on its cells, one per Cells entry in that order,
// and allocates its local frame. out receives print() output.
func (b *Body) Bind(cells []*value.Value, out io.Writer) *Bound {
	bd := &Bound{body: b, fr: frame{cells: cells, out: out}}
	if b.NumLocals > 0 {
		bd.fr.locals = make([]value.Value, b.NumLocals)
	}
	if fb := b.fast; fb != nil {
		if fb.nLocals > 0 {
			bd.fr.regs = make([]int64, fb.nLocals)
		}
		bd.hasFast = fb.bindConsts(&bd.fr)
	}
	return bd
}

// FastTier reports, without binding, which fast surfaces a placement
// whose captured cells hold caps (aligned with Cells; global entries
// are not read) gets from Bind: fast when FastExec will be non-nil, and
// counter when CounterShape will succeed too.
func (b *Body) FastTier(caps []value.Value) (fast, counter bool) {
	fb := b.fast
	if fb == nil {
		return false, false
	}
	for _, k := range fb.consts {
		if _, ok := k.resolve(&caps[k.cell]); !ok {
			return false, false
		}
	}
	return true, fb.counter != nil
}

// Exec runs the bound body with the probe's materialized dynamic attribute
// values (indexed per Body.DynAttrs). The first runtime error aborts the
// invocation and is returned.
func (b *Bound) Exec(dyn []value.Value) error {
	b.fr.dyn = dyn
	if b.body.guard != nil {
		v, err := b.body.guard(&b.fr)
		if err != nil {
			return err
		}
		if !v.AsBool() {
			return nil
		}
	}
	for _, st := range b.body.stmts {
		if err := st(&b.fr); err != nil {
			return err
		}
	}
	return nil
}

// FastExec returns the bound whole-body fast lowering, or nil when the
// body has none or this placement's bind-time constants did not
// resolve. The returned closure is observationally identical to Exec —
// same stores, same output, same errors in the same order — and subject
// to the same sequential-use contract.
func (b *Bound) FastExec() func(dyn []value.Value) error {
	fb := b.body.fast
	if fb == nil || !b.hasFast {
		return nil
	}
	fr := &b.fr
	guard := fb.guard
	stmts := fb.stmts
	return func(dyn []value.Value) error {
		fr.dyn = dyn
		if guard != nil {
			ok, err := guard(fr)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		for _, st := range stmts {
			if err := st(fr); err != nil {
				return err
			}
		}
		return nil
	}
}

// CounterShape reports whether the bound body is additive (see
// classifyCounter) and, if so, returns a flush function such that n
// consecutive firings leave every observable equal to one flush(n) call:
// each bump's target gains n times its addend. A captured addend is read
// at flush time, which is safe because it is private to this placement
// and the body never assigns it.
func (b *Bound) CounterShape() (flush func(n int64), ok bool) {
	fb := b.body.fast
	if fb == nil || fb.counter == nil || !b.hasFast {
		return nil, false
	}
	cells, regs, terms := b.fr.cells, b.fr.regs, fb.counter
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
// init/exit block. It is immutable after Compile and safe for concurrent
// Bind calls from parallel instrumentation runs.
type Program struct {
	// Actions maps each action node to its compiled body.
	Actions map[*ast.Action]*Body
	// Inits and Exits parallel sem.Info.Inits / Info.Exits.
	Inits, Exits []*Body
}

// Compile lowers every action and init/exit body of a checked program.
// prog must have passed sem.Check with the given info.
func Compile(prog *ast.Program, info *sem.Info) (*Program, error) {
	cp := &Program{Actions: make(map[*ast.Action]*Body)}
	rebound := arrayRebinds(prog, info)
	// All globals are visible to every body: the engine declares them
	// before anything executes, so even a body placed earlier in source
	// order resolves a later global. Command-scope names, by contrast,
	// become visible in source order (see compileCommand).
	globals := &outerScope{global: true, names: make(map[string]bool)}
	for _, item := range prog.Items {
		if d, ok := item.(*ast.VarDecl); ok {
			globals.names[d.Name] = true
		}
	}
	for _, item := range prog.Items {
		switch it := item.(type) {
		case *ast.InitBlock:
			b, err := compileBody(info, nil, it.Body, nil, globals, rebound)
			if err != nil {
				return nil, err
			}
			cp.Inits = append(cp.Inits, b)
		case *ast.ExitBlock:
			b, err := compileBody(info, nil, it.Body, nil, globals, rebound)
			if err != nil {
				return nil, err
			}
			cp.Exits = append(cp.Exits, b)
		case *ast.Command:
			if err := cp.compileCommand(info, it, globals, rebound); err != nil {
				return nil, err
			}
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
	names  map[string]bool
	global bool
}

func (s *outerScope) resolve(name string) (CellRef, bool) {
	for o := s; o != nil; o = o.parent {
		if o.names[name] {
			return CellRef{Name: name, Global: o.global}, true
		}
	}
	return CellRef{}, false
}

func (cp *Program) compileCommand(info *sem.Info, cmd *ast.Command, parent *outerScope, rebound map[string]bool) error {
	scope := &outerScope{parent: parent, names: map[string]bool{cmd.Var: true}}
	for _, item := range cmd.Body {
		switch it := item.(type) {
		case *ast.Command:
			if err := cp.compileCommand(info, it, scope, rebound); err != nil {
				return err
			}
		case *ast.Action:
			ai := info.Actions[it]
			if ai == nil {
				return fmt.Errorf("cinnamon: internal: unchecked action at %s", it.Pos())
			}
			var guard ast.Expr
			if ai.WhereDynamic {
				guard = it.Where
			}
			b, err := compileBody(info, ai.DynAttrs, it.Body, guard, scope, rebound)
			if err != nil {
				return err
			}
			cp.Actions[it] = b
		case *ast.DeclStmt:
			// Top-level analysis declarations join the command scope and
			// are visible to (and captured by) later actions; declarations
			// nested inside analysis if/for bodies do not escape, exactly
			// as the interpreter scopes them.
			scope.names[it.Decl.Name] = true
		}
	}
	return nil
}

// compiler carries the per-body lowering state.
type compiler struct {
	info  *sem.Info
	outer *outerScope

	cells   []CellRef
	cellIdx map[string]int
	dyn     []sem.DynAttr

	nLocals int
	scope   *localScope

	// rebound names the arrays the program rebinds, and consts collects
	// the body's bind-time constants (fast pass only).
	rebound map[string]bool
	consts  []bindConst
}

// localScope is a body-local lexical scope (if/for bodies open new ones).
type localScope struct {
	parent *localScope
	names  map[string]int
}

func compileBody(info *sem.Info, dyn []sem.DynAttr, body []ast.Stmt, guard ast.Expr, outer *outerScope, rebound map[string]bool) (*Body, error) {
	c := &compiler{info: info, outer: outer, cellIdx: make(map[string]int), dyn: dyn}
	c.pushScope()
	b := &Body{DynAttrs: dyn}
	if guard != nil {
		// The guard runs in the placement scope before any body locals
		// exist; compiling it first keeps its resolution body-independent.
		b.guard = c.compileExpr(guard)
	}
	b.stmts = c.compileStmts(body)
	b.NumLocals = c.nLocals
	// The fast pass resolves its cells against this pass's table, so the
	// two lowerings share one frame; a cell only the fast pass reads is
	// appended to the table.
	fc := &compiler{info: info, outer: outer, cells: slices.Clone(c.cells), cellIdx: maps.Clone(c.cellIdx), dyn: dyn, rebound: rebound}
	if b.fast = fc.compileFastBody(body, guard); b.fast != nil {
		c.cells = fc.cells
	}
	b.Cells = c.cells
	return b, nil
}

func (c *compiler) pushScope() {
	c.scope = &localScope{parent: c.scope, names: make(map[string]int)}
}

func (c *compiler) popScope() { c.scope = c.scope.parent }

// defineLocal assigns a fresh slot for a body-local declaration; shadowed
// names get distinct slots, matching the interpreter's nested frames.
func (c *compiler) defineLocal(name string) int {
	idx := c.nLocals
	c.nLocals++
	c.scope.names[name] = idx
	return idx
}

// slot is a resolved identifier: a body-local index or a cell index.
type slot struct {
	local bool
	idx   int
}

func (c *compiler) resolve(name string) (slot, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if i, ok := s.names[name]; ok {
			return slot{local: true, idx: i}, true
		}
	}
	if ref, ok := c.outer.resolve(name); ok {
		if i, ok := c.cellIdx[name]; ok {
			return slot{idx: i}, true
		}
		i := len(c.cells)
		c.cells = append(c.cells, ref)
		c.cellIdx[name] = i
		return slot{idx: i}, true
	}
	return slot{}, false
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
