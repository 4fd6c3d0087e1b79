// Package sem implements Cinnamon's semantic analysis: name resolution,
// type checking, command-nesting and trigger-point validation, and the
// static/dynamic classification of expressions that decides what is
// evaluated at instrumentation time versus materialized at run time.
package sem

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/token"
	"repro/internal/core/types"
)

// StmtCost is the cost-model price (cycle units) of one interpreted
// action statement; an action's cost estimate is StmtCost times its
// static statement count. Native tools use the same convention, so
// measured overhead isolates dispatch mechanisms (see DESIGN.md).
const StmtCost = 10

// Error is a semantic error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("cinnamon: %s: %s", e.Pos, e.Msg) }

// DynAttr names one dynamic attribute use: variable I, attribute memaddr.
type DynAttr struct {
	Var  string
	Attr string
}

// ActionInfo is the analysis result for one action.
type ActionInfo struct {
	// Canonical is the normalized trigger (before/after on blocks,
	// functions and loops canonicalize to entry/exit).
	Canonical ast.Trigger
	// TargetEType is the CFE type of the action's target variable.
	TargetEType ast.EType
	// Enclosing is the command whose variable the action targets.
	Enclosing *ast.Command
	// DynAttrs lists the dynamic attributes used in the body and
	// constraint, deduplicated and sorted; the backend materializes
	// exactly these per invocation.
	DynAttrs []DynAttr
	// WhereDynamic reports that the action constraint uses dynamic
	// attributes and must be compiled into a run-time guard. Static
	// constraints are evaluated once, at instrumentation time.
	WhereDynamic bool
	// WhereDeferSafe reports a static constraint whose value is fixed by
	// the CFE instances it names: it reads only control-flow element
	// variables, literals and pure operators over them (no call or
	// index, which reach mutable analysis state or the tool file
	// system), so the where-clause hoisting pass may decide it after the
	// walk.
	WhereDeferSafe bool
	// NumCaptured is the number of distinct analysis variables in scope
	// at the action: the CFE variables and top-level declarations of the
	// enclosing commands, the data a real backend would pass as callback
	// arguments.
	NumCaptured int
	// Cost is the cost-model estimate of the action body (units).
	Cost uint64
	// Simple marks bodies eligible for clean-call inlining by dynamic
	// frameworks: at most two statements, no loops, no calls.
	Simple bool
	// Sample is the action's sampling stride (`sample N`): each
	// placement fires on every Nth hit. 0 or 1 means every hit.
	Sample uint64
}

// Info is the output of semantic analysis.
type Info struct {
	// Types records the type of every expression.
	Types map[ast.Expr]*types.Type
	// DynamicExprs marks field expressions that resolve to dynamic
	// attributes.
	DynamicExprs map[ast.Expr]bool
	// DeclTypes records the resolved type of every declaration.
	DeclTypes map[*ast.VarDecl]*types.Type
	// Globals lists global declarations in source order.
	Globals []*ast.VarDecl
	// Inits and Exits list the program's init/exit blocks in order.
	Inits []*ast.InitBlock
	Exits []*ast.ExitBlock
	// Commands lists the top-level commands in source order.
	Commands []*ast.Command
	// Actions records per-action analysis results.
	Actions map[*ast.Action]*ActionInfo
}

type symbol struct {
	name  string
	typ   *types.Type
	isCFE bool
	// cmd is the defining command for CFE variables.
	cmd *ast.Command
	// global marks tool-global variables (shared at run time; never
	// captured by value).
	global bool
}

type checker struct {
	info   *Info
	scopes []map[string]*symbol
}

// Check analyzes a parsed program.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Types:        make(map[ast.Expr]*types.Type),
			DynamicExprs: make(map[ast.Expr]bool),
			DeclTypes:    make(map[*ast.VarDecl]*types.Type),
			Actions:      make(map[*ast.Action]*ActionInfo),
		},
	}
	c.push()
	for _, item := range prog.Items {
		var err error
		switch it := item.(type) {
		case *ast.VarDecl:
			err = c.declare(it, true)
			if err == nil {
				c.info.Globals = append(c.info.Globals, it)
			}
		case *ast.InitBlock:
			c.info.Inits = append(c.info.Inits, it)
			err = c.checkStmtsStatic(it.Body)
		case *ast.ExitBlock:
			c.info.Exits = append(c.info.Exits, it)
			err = c.checkStmtsStatic(it.Body)
		case *ast.Command:
			c.info.Commands = append(c.info.Commands, it)
			err = c.checkCommand(it, nil)
		}
		if err != nil {
			return nil, err
		}
	}
	return c.info, nil
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*symbol)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) define(s *symbol, pos token.Pos) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[s.name]; dup {
		return &Error{Pos: pos, Msg: fmt.Sprintf("%s redeclared in this scope", s.name)}
	}
	top[s.name] = s
	return nil
}

func (c *checker) lookup(name string) *symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

func (c *checker) declare(d *ast.VarDecl, global bool) error {
	t, err := types.FromSpec(d.Type)
	if err != nil {
		return &Error{Pos: d.P, Msg: err.Error()}
	}
	c.info.DeclTypes[d] = t
	if t.Kind == types.File {
		if len(d.Args) != 1 {
			return &Error{Pos: d.P, Msg: "file declaration requires a name argument: file f(\"name\")"}
		}
		at, err := c.checkExprIn(d.Args[0], nil)
		if err != nil {
			return err
		}
		if !at.IsStringy() {
			return &Error{Pos: d.P, Msg: "file name must be a string"}
		}
	} else if len(d.Args) > 0 {
		return &Error{Pos: d.P, Msg: fmt.Sprintf("type %s takes no constructor arguments", t)}
	}
	if d.Init != nil {
		it, err := c.checkExprIn(d.Init, nil)
		if err != nil {
			return err
		}
		if !it.AssignableTo(t) {
			return &Error{Pos: d.P, Msg: fmt.Sprintf("cannot initialize %s (%s) with %s", d.Name, t, it)}
		}
	}
	return c.define(&symbol{name: d.Name, typ: t, global: global}, d.P)
}

// actionCtx carries the action being checked; a nil *actionCtx means a
// static context (analysis code, constraints, init/exit blocks) where
// dynamic attributes are illegal.
type actionCtx struct {
	action  *ast.Action
	info    *ActionInfo
	dynSeen map[DynAttr]bool
}

func (c *checker) checkCommand(cmd *ast.Command, parent *ast.Command) error {
	if parent != nil {
		pe := parent.EType
		if cmd.EType.Level() <= pe.Level() {
			return &Error{Pos: cmd.P, Msg: fmt.Sprintf(
				"command %s (%s) cannot nest inside %s (%s): commands must select strictly finer elements",
				cmd.Var, cmd.EType, parent.Var, pe)}
		}
	}
	c.push()
	defer c.pop()
	if err := c.define(&symbol{name: cmd.Var, typ: types.NewCFE(cmd.EType), isCFE: true, cmd: cmd}, cmd.P); err != nil {
		return err
	}
	if cmd.Where != nil {
		t, err := c.checkExprNoDyn(cmd.Where, "command constraint")
		if err != nil {
			return err
		}
		if t.Kind != types.Bool {
			return &Error{Pos: cmd.Where.Pos(), Msg: fmt.Sprintf("command constraint must be bool, got %s", t)}
		}
	}
	for _, item := range cmd.Body {
		switch it := item.(type) {
		case *ast.Command:
			if err := c.checkCommand(it, cmd); err != nil {
				return err
			}
		case *ast.Action:
			if err := c.checkAction(it); err != nil {
				return err
			}
		case ast.Stmt:
			// Analysis code: static context.
			if err := c.checkStmtsStatic([]ast.Stmt{it}); err != nil {
				return err
			}
		default:
			return &Error{Pos: item.Pos(), Msg: "invalid command item"}
		}
	}
	return nil
}

// canonicalTrigger normalizes an action trigger for a CFE type, or
// returns an error for invalid combinations.
func canonicalTrigger(tr ast.Trigger, e ast.EType, pos token.Pos) (ast.Trigger, error) {
	switch e {
	case ast.Inst:
		if tr == ast.Before || tr == ast.After {
			return tr, nil
		}
		return 0, &Error{Pos: pos, Msg: fmt.Sprintf("trigger %s is invalid for instructions (use before/after)", tr)}
	case ast.BasicBlock, ast.Func:
		switch tr {
		case ast.Entry, ast.Before:
			return ast.Entry, nil
		case ast.Exit, ast.After:
			return ast.Exit, nil
		}
		return 0, &Error{Pos: pos, Msg: fmt.Sprintf("trigger %s is invalid for %s (use entry/exit)", tr, e)}
	case ast.Loop:
		switch tr {
		case ast.Entry, ast.Before:
			return ast.Entry, nil
		case ast.Exit, ast.After:
			return ast.Exit, nil
		case ast.Iter:
			return ast.Iter, nil
		}
		return 0, &Error{Pos: pos, Msg: fmt.Sprintf("trigger %s is invalid for loops", tr)}
	case ast.Module:
		return 0, &Error{Pos: pos, Msg: "actions cannot target modules; use init/exit blocks"}
	}
	return 0, &Error{Pos: pos, Msg: "invalid trigger"}
}

func (c *checker) checkAction(a *ast.Action) error {
	sym := c.lookup(a.Target)
	if sym == nil || !sym.isCFE {
		return &Error{Pos: a.P, Msg: fmt.Sprintf("action target %q is not a control-flow element variable in scope", a.Target)}
	}
	etype := sym.typ.EType
	canon, err := canonicalTrigger(a.Trigger, etype, a.P)
	if err != nil {
		return err
	}
	ai := &ActionInfo{
		Canonical:   canon,
		TargetEType: etype,
		Enclosing:   sym.cmd,
		Sample:      uint64(a.Sample),
	}
	c.info.Actions[a] = ai
	actx := &actionCtx{action: a, info: ai, dynSeen: make(map[DynAttr]bool)}
	// Constraint: may be static or dynamic.
	if a.Where != nil {
		t, err := c.checkExprIn(a.Where, actx)
		if err != nil {
			return err
		}
		if t.Kind != types.Bool {
			return &Error{Pos: a.Where.Pos(), Msg: fmt.Sprintf("action constraint must be bool, got %s", t)}
		}
		ai.WhereDynamic = c.exprIsDynamic(a.Where)
		ai.WhereDeferSafe = !ai.WhereDynamic && c.deferSafe(a.Where)
	}
	names := make(map[string]bool)
	for _, s := range c.scopes[1:] {
		for n := range s {
			names[n] = true
		}
	}
	ai.NumCaptured = len(names)
	c.push()
	err = c.checkStmtsIn(a.Body, actx)
	c.pop()
	if err != nil {
		return err
	}
	// Finalize dynamic attribute list (sorted for determinism).
	for da := range actx.dynSeen {
		ai.DynAttrs = append(ai.DynAttrs, da)
	}
	sort.Slice(ai.DynAttrs, func(i, j int) bool {
		if ai.DynAttrs[i].Var != ai.DynAttrs[j].Var {
			return ai.DynAttrs[i].Var < ai.DynAttrs[j].Var
		}
		return ai.DynAttrs[i].Attr < ai.DynAttrs[j].Attr
	})
	ai.Cost = uint64(ast.CountStmts(a.Body)) * StmtCost
	if ai.WhereDynamic {
		// A dynamic constraint compiles into a run-time guard executed
		// on every invocation; charge it like a body statement.
		ai.Cost += StmtCost
	}
	ai.Simple = isSimpleBody(a.Body)
	return nil
}

func isSimpleBody(body []ast.Stmt) bool {
	if len(body) > 2 {
		return false
	}
	simple := true
	ast.WalkStmts(body, func(s ast.Stmt) {
		switch s.(type) {
		case *ast.ForStmt, *ast.IfStmt:
			simple = false
		}
	}, func(e ast.Expr) {
		if _, ok := e.(*ast.CallExpr); ok {
			simple = false
		}
	})
	return simple
}

// deferSafe reports whether a static constraint reads only CFE
// variables, literals and pure operators over them.
func (c *checker) deferSafe(e ast.Expr) bool {
	safe := true
	ast.Walk(e, func(x ast.Expr) {
		switch n := x.(type) {
		case *ast.Ident:
			if t := c.info.Types[n]; t == nil || t.Kind != types.CFE {
				safe = false
			}
		case *ast.IntLit, *ast.StringLit, *ast.CharLit, *ast.BoolLit,
			*ast.NullLit, *ast.OpcodeLit,
			*ast.BinaryExpr, *ast.UnaryExpr, *ast.FieldExpr, *ast.IsTypeExpr:
		default:
			safe = false
		}
	})
	return safe
}

func (c *checker) exprIsDynamic(e ast.Expr) bool {
	dyn := false
	ast.Walk(e, func(x ast.Expr) {
		if c.info.DynamicExprs[x] {
			dyn = true
		}
	})
	return dyn
}

// checkStmtsStatic checks statements in a static context (analysis code,
// init/exit blocks): dynamic attributes are rejected.
func (c *checker) checkStmtsStatic(stmts []ast.Stmt) error {
	return c.checkStmtsIn(stmts, nil)
}

func (c *checker) checkStmtsIn(stmts []ast.Stmt, actx *actionCtx) error {
	for _, s := range stmts {
		if err := c.checkStmt(s, actx); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s ast.Stmt, actx *actionCtx) error {
	switch st := s.(type) {
	case *ast.DeclStmt:
		if c.info.DeclTypes[st.Decl] == nil {
			if err := c.declareLocal(st.Decl, actx); err != nil {
				return err
			}
		}
		return nil
	case *ast.AssignStmt:
		lt, err := c.checkLValue(st.LHS, actx)
		if err != nil {
			return err
		}
		rt, err := c.checkExprIn(st.RHS, actx)
		if err != nil {
			return err
		}
		if !rt.AssignableTo(lt) {
			return &Error{Pos: st.P, Msg: fmt.Sprintf("cannot assign %s to %s", rt, lt)}
		}
		return nil
	case *ast.ExprStmt:
		_, err := c.checkExprIn(st.X, actx)
		return err
	case *ast.IfStmt:
		t, err := c.checkExprIn(st.Cond, actx)
		if err != nil {
			return err
		}
		if t.Kind != types.Bool {
			return &Error{Pos: st.Cond.Pos(), Msg: fmt.Sprintf("if condition must be bool, got %s", t)}
		}
		c.push()
		err = c.checkStmtsIn(st.Then, actx)
		c.pop()
		if err != nil {
			return err
		}
		c.push()
		err = c.checkStmtsIn(st.Else, actx)
		c.pop()
		return err
	case *ast.ForStmt:
		c.push()
		defer c.pop()
		if st.Init != nil {
			if err := c.checkStmt(st.Init, actx); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			t, err := c.checkExprIn(st.Cond, actx)
			if err != nil {
				return err
			}
			if t.Kind != types.Bool {
				return &Error{Pos: st.Cond.Pos(), Msg: fmt.Sprintf("for condition must be bool, got %s", t)}
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post, actx); err != nil {
				return err
			}
		}
		return c.checkStmtsIn(st.Body, actx)
	}
	return &Error{Pos: s.Pos(), Msg: "invalid statement"}
}

func (c *checker) declareLocal(d *ast.VarDecl, actx *actionCtx) error {
	t, err := types.FromSpec(d.Type)
	if err != nil {
		return &Error{Pos: d.P, Msg: err.Error()}
	}
	if t.Kind == types.File {
		return &Error{Pos: d.P, Msg: "files may only be declared at global scope"}
	}
	if len(d.Args) > 0 {
		return &Error{Pos: d.P, Msg: fmt.Sprintf("type %s takes no constructor arguments", t)}
	}
	c.info.DeclTypes[d] = t
	if d.Init != nil {
		it, err := c.checkExprIn(d.Init, actx)
		if err != nil {
			return err
		}
		if !it.AssignableTo(t) {
			return &Error{Pos: d.P, Msg: fmt.Sprintf("cannot initialize %s (%s) with %s", d.Name, t, it)}
		}
	}
	return c.define(&symbol{name: d.Name, typ: t}, d.P)
}

func (c *checker) checkLValue(e ast.Expr, actx *actionCtx) (*types.Type, error) {
	switch lv := e.(type) {
	case *ast.Ident:
		sym := c.lookup(lv.Name)
		if sym == nil {
			return nil, &Error{Pos: lv.P, Msg: fmt.Sprintf("undefined: %s", lv.Name)}
		}
		if sym.isCFE {
			return nil, &Error{Pos: lv.P, Msg: fmt.Sprintf("cannot assign to control-flow element %s", lv.Name)}
		}
		if sym.typ.Kind == types.File {
			return nil, &Error{Pos: lv.P, Msg: "cannot assign to a file"}
		}
		c.info.Types[e] = sym.typ
		return sym.typ, nil
	case *ast.IndexExpr:
		return c.checkIndex(lv, actx)
	case *ast.FieldExpr:
		return nil, &Error{Pos: lv.P, Msg: "control-flow element attributes are read-only (Cinnamon performs passive monitoring)"}
	}
	return nil, &Error{Pos: e.Pos(), Msg: "invalid assignment target"}
}

// checkExprNoDyn checks an expression in a static context, rejecting
// dynamic attributes with a context-specific message.
func (c *checker) checkExprNoDyn(e ast.Expr, what string) (*types.Type, error) {
	t, err := c.checkExprIn(e, nil)
	if err != nil {
		return nil, err
	}
	if c.exprIsDynamic(e) {
		return nil, &Error{Pos: e.Pos(), Msg: fmt.Sprintf(
			"%s must be evaluable at instrumentation time; dynamic attributes are only available inside actions", what)}
	}
	return t, nil
}

func (c *checker) checkExprIn(e ast.Expr, actx *actionCtx) (*types.Type, error) {
	t, err := c.exprType(e, actx)
	if err != nil {
		return nil, err
	}
	c.info.Types[e] = t
	return t, nil
}

func (c *checker) exprType(e ast.Expr, actx *actionCtx) (*types.Type, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return types.Basic(types.Int), nil
	case *ast.StringLit:
		return types.Basic(types.String), nil
	case *ast.CharLit:
		return types.Basic(types.Char), nil
	case *ast.BoolLit:
		return types.Basic(types.Bool), nil
	case *ast.NullLit:
		return types.Basic(types.Null), nil
	case *ast.OpcodeLit:
		return types.Basic(types.Opcode), nil
	case *ast.Ident:
		sym := c.lookup(x.Name)
		if sym == nil {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("undefined: %s", x.Name)}
		}
		return sym.typ, nil
	case *ast.FieldExpr:
		return c.checkField(x, actx)
	case *ast.IndexExpr:
		return c.checkIndex(x, actx)
	case *ast.CallExpr:
		return c.checkCall(x, actx)
	case *ast.IsTypeExpr:
		t, err := c.checkExprIn(x.X, actx)
		if err != nil {
			return nil, err
		}
		if t.Kind != types.Operand {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("IsType requires an instruction operand, got %s", t)}
		}
		return types.Basic(types.Bool), nil
	case *ast.UnaryExpr:
		t, err := c.checkExprIn(x.X, actx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.NOT:
			if t.Kind != types.Bool {
				return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("operator ! requires bool, got %s", t)}
			}
			return types.Basic(types.Bool), nil
		case token.MINUS:
			if !t.IsNumeric() {
				return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("operator - requires a number, got %s", t)}
			}
			return types.Basic(types.Int), nil
		}
		return nil, &Error{Pos: x.P, Msg: "invalid unary operator"}
	case *ast.BinaryExpr:
		return c.checkBinary(x, actx)
	}
	return nil, &Error{Pos: e.Pos(), Msg: "invalid expression"}
}

func (c *checker) checkField(x *ast.FieldExpr, actx *actionCtx) (*types.Type, error) {
	base, err := c.checkExprIn(x.X, actx)
	if err != nil {
		return nil, err
	}
	if base.Kind != types.CFE {
		return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("%s has no attributes (not a control-flow element)", base)}
	}
	attr, ok := LookupAttr(base.EType, x.Name)
	if !ok {
		return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("%s has no attribute %q", base.EType, x.Name)}
	}
	if attr.Dynamic {
		if actx == nil {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf(
				"attribute %s.%s belongs to the dynamic context and is only available inside actions", base.EType, attr.Name)}
		}
		// The backends materialize a dynamic attribute from the firing
		// of the action's own element; an enclosing action on a coarser
		// element has no such firing to read it from.
		id, ok := x.X.(*ast.Ident)
		if !ok || id.Name != actx.action.Target {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf(
				"dynamic attribute %s.%s is only available in actions on its own element, not in an action on %s",
				base.EType, attr.Name, actx.action.Target)}
		}
		if attr.AfterOnly && actx.info.Canonical != ast.After {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf(
				"attribute %s is only available in after-actions (the call must have returned)", attr.Name)}
		}
		c.info.DynamicExprs[x] = true
		actx.dynSeen[DynAttr{Var: id.Name, Attr: attr.Name}] = true
	}
	return attr.Type, nil
}

func (c *checker) checkIndex(x *ast.IndexExpr, actx *actionCtx) (*types.Type, error) {
	base, err := c.checkExprIn(x.X, actx)
	if err != nil {
		return nil, err
	}
	idx, err := c.checkExprIn(x.Index, actx)
	if err != nil {
		return nil, err
	}
	switch base.Kind {
	case types.Dict:
		if !idx.AssignableTo(base.Key) {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("dict key must be %s, got %s", base.Key, idx)}
		}
		return base.Elem, nil
	case types.Vector, types.Array:
		if !idx.IsNumeric() {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("index must be a number, got %s", idx)}
		}
		return base.Elem, nil
	}
	return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("%s is not indexable", base)}
}

func (c *checker) checkCall(x *ast.CallExpr, actx *actionCtx) (*types.Type, error) {
	switch fun := x.Fun.(type) {
	case *ast.Ident:
		return c.checkBuiltin(x, fun.Name, actx)
	case *ast.FieldExpr:
		recv, err := c.checkExprIn(fun.X, actx)
		if err != nil {
			return nil, err
		}
		return c.checkMethod(x, recv, fun.Name, actx)
	}
	return nil, &Error{Pos: x.P, Msg: "invalid call"}
}

func (c *checker) checkBuiltin(x *ast.CallExpr, name string, actx *actionCtx) (*types.Type, error) {
	switch name {
	case "print":
		if len(x.Args) == 0 {
			return nil, &Error{Pos: x.P, Msg: "print requires at least one argument"}
		}
		for _, a := range x.Args {
			if _, err := c.checkExprIn(a, actx); err != nil {
				return nil, err
			}
		}
		return types.Basic(types.Void), nil
	case "writeToFile":
		if len(x.Args) != 2 {
			return nil, &Error{Pos: x.P, Msg: "writeToFile requires (file, value)"}
		}
		ft, err := c.checkExprIn(x.Args[0], actx)
		if err != nil {
			return nil, err
		}
		if ft.Kind != types.File {
			return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("writeToFile first argument must be a file, got %s", ft)}
		}
		if _, err := c.checkExprIn(x.Args[1], actx); err != nil {
			return nil, err
		}
		return types.Basic(types.Void), nil
	}
	return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("unknown function %q", name)}
}

func (c *checker) checkMethod(x *ast.CallExpr, recv *types.Type, name string, actx *actionCtx) (*types.Type, error) {
	argTypes := make([]*types.Type, len(x.Args))
	for i, a := range x.Args {
		t, err := c.checkExprIn(a, actx)
		if err != nil {
			return nil, err
		}
		argTypes[i] = t
	}
	bad := func(format string, args ...any) (*types.Type, error) {
		return nil, &Error{Pos: x.P, Msg: fmt.Sprintf(format, args...)}
	}
	switch recv.Kind {
	case types.Vector:
		switch name {
		case "add":
			if len(x.Args) != 1 || !argTypes[0].AssignableTo(recv.Elem) {
				return bad("vector.add requires one %s argument", recv.Elem)
			}
			return types.Basic(types.Void), nil
		case "has":
			if len(x.Args) != 1 || !argTypes[0].AssignableTo(recv.Elem) {
				return bad("vector.has requires one %s argument", recv.Elem)
			}
			return types.Basic(types.Bool), nil
		case "size":
			if len(x.Args) != 0 {
				return bad("vector.size takes no arguments")
			}
			return types.Basic(types.Int), nil
		}
		return bad("vector has no method %q", name)
	case types.Dict:
		switch name {
		case "has":
			if len(x.Args) != 1 || !argTypes[0].AssignableTo(recv.Key) {
				return bad("dict.has requires one %s argument", recv.Key)
			}
			return types.Basic(types.Bool), nil
		case "size":
			if len(x.Args) != 0 {
				return bad("dict.size takes no arguments")
			}
			return types.Basic(types.Int), nil
		}
		return bad("dict has no method %q", name)
	case types.File:
		switch name {
		case "getline":
			if len(x.Args) != 0 {
				return bad("file.getline takes no arguments")
			}
			return types.Basic(types.Line), nil
		}
		return bad("file has no method %q", name)
	case types.CFE:
		// A call through a CFE field would land here; attributes are not
		// methods.
		return bad("%s attributes cannot be called", recv)
	}
	return bad("%s has no methods", recv)
}

func (c *checker) checkBinary(x *ast.BinaryExpr, actx *actionCtx) (*types.Type, error) {
	lt, err := c.checkExprIn(x.X, actx)
	if err != nil {
		return nil, err
	}
	rt, err := c.checkExprIn(x.Y, actx)
	if err != nil {
		return nil, err
	}
	bad := func() (*types.Type, error) {
		return nil, &Error{Pos: x.P, Msg: fmt.Sprintf("invalid operation: %s %s %s", lt, x.Op, rt)}
	}
	switch x.Op {
	case token.LAND, token.LOR:
		if lt.Kind != types.Bool || rt.Kind != types.Bool {
			return bad()
		}
		return types.Basic(types.Bool), nil
	case token.EQ, token.NEQ:
		if !lt.ComparableWith(rt) {
			return bad()
		}
		return types.Basic(types.Bool), nil
	case token.LT, token.LE, token.GT, token.GE:
		if !lt.OrderedWith(rt) {
			return bad()
		}
		return types.Basic(types.Bool), nil
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR:
		lnum := lt.IsNumeric() || lt.Kind == types.Line
		rnum := rt.IsNumeric() || rt.Kind == types.Line
		if !lnum || !rnum {
			return bad()
		}
		// Preserve addr-ness through arithmetic so pointer expressions
		// keep their type; otherwise result is int.
		if lt.Kind == types.Addr || rt.Kind == types.Addr {
			return types.Basic(types.Addr), nil
		}
		return types.Basic(types.Int), nil
	}
	return bad()
}

// DescribeDynAttr renders a dynamic attribute for diagnostics and
// generated-code comments.
func DescribeDynAttr(d DynAttr) string {
	return strings.Join([]string{d.Var, d.Attr}, ".")
}
