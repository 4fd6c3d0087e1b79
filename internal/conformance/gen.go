// Package conformance implements the differential conformance harness:
// a seeded, deterministic generator of valid Cinnamon programs and of
// victim workloads, a differential runner that executes every generated
// (program, victim) pair through all three backends, each with every
// speed layer on and ablated, and a structured oracle that encodes the
// paper's legal divergences (Figure 12) — Pin sees shared libraries,
// Dyninst skips binaries with unrecoverable control flow — instead of
// blind equality.
// Mismatches shrink to a minimal reproducing program and are persisted
// to a checked-in regression corpus replayed by ordinary `go test`.
package conformance

import (
	"fmt"
	"math/rand"

	"repro/internal/core/ast"
	"repro/internal/core/token"
)

// Program is a generated Cinnamon tool program.
type Program struct {
	// Seed reproduces the program: GenProgram(Seed) returns identical
	// source on every run.
	Seed uint64
	// Source is the canonical .cin text (rendered with ast.Print, so
	// reparsing and reprinting is a fixed point).
	Source string
	// UsesLoops reports whether the program contains a loop command —
	// plain Pin must refuse it (no notion of loops), and the runner adds
	// PinLoopDetection cells for it.
	UsesLoops bool
}

// GenProgram deterministically generates a valid Cinnamon program from
// the seed. The sampling space covers every CFE kind, trigger point,
// static and dynamic where-constraints, analysis code (including
// block-local counters captured into actions), containers, init/exit
// blocks, and nested commands.
func GenProgram(seed uint64) *Program {
	g := &progGen{r: rand.New(rand.NewSource(int64(seed)))}
	g.genDecls()
	if g.r.Intn(100) < 40 {
		g.genInit()
	}
	n := 2 + g.r.Intn(3) // 2-4 commands
	for i := 0; i < n; i++ {
		g.genCommand()
	}
	g.genExit()
	prog := &ast.Program{Items: g.items}
	return &Program{Seed: seed, Source: ast.Print(prog), UsesLoops: g.usesLoops}
}

type progGen struct {
	r *rand.Rand

	items []ast.TopItem

	counters []string // uint64 globals
	dicts    []string // dict<int,int>
	strDicts []string // dict<string,int>
	vectors  []string // vector<int>
	arrays   []string // int name[16]

	nCFE      int // unique CFE variable names
	usesLoops bool
}

// Terse AST constructors. Positions are zero: generated programs are
// always rendered to source and reparsed before compilation, so real
// positions (and with them unique action labels) come from the parser.

func vid(name string) ast.Expr { return &ast.Ident{Name: name} }
func num(v int64) ast.Expr     { return &ast.IntLit{Val: v} }
func str(s string) ast.Expr    { return &ast.StringLit{Val: s} }
func opcode(n string) ast.Expr { return &ast.OpcodeLit{Name: n} }
func cfeAttr(v, a string) ast.Expr {
	return &ast.FieldExpr{X: vid(v), Name: a}
}

func bin(op token.Kind, x, y ast.Expr) ast.Expr {
	return &ast.BinaryExpr{Op: op, X: x, Y: y}
}

func assign(lhs, rhs ast.Expr) ast.Stmt {
	return &ast.AssignStmt{LHS: lhs, RHS: rhs}
}

func callStmt(fun ast.Expr, args ...ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: &ast.CallExpr{Fun: fun, Args: args}}
}

func printStmt(args ...ast.Expr) ast.Stmt {
	return callStmt(vid("print"), args...)
}

func methodCall(recv, method string, args ...ast.Expr) ast.Expr {
	return &ast.CallExpr{Fun: &ast.FieldExpr{X: vid(recv), Name: method}, Args: args}
}

func index(name string, i ast.Expr) ast.Expr {
	return &ast.IndexExpr{X: vid(name), Index: i}
}

// intDecl builds `int name = init;`.
func intDecl(name string, init ast.Expr) ast.Stmt {
	return &ast.DeclStmt{Decl: &ast.VarDecl{Type: &ast.TypeSpec{Kind: token.TINT}, Name: name, Init: init}}
}

// forUpTo builds `for (int i = 0; i < bound; i = i + 1) { body }`.
func forUpTo(bound ast.Expr, body ...ast.Stmt) ast.Stmt {
	return &ast.ForStmt{
		Init: intDecl("i", num(0)),
		Cond: bin(token.LT, vid("i"), bound),
		Post: incBy("i", num(1)),
		Body: body,
	}
}

// incBy builds `name = name + delta;`.
func incBy(name string, delta ast.Expr) ast.Stmt {
	return assign(vid(name), bin(token.PLUS, vid(name), delta))
}

const arrayLen = 16

func (g *progGen) genDecls() {
	nc := 2 + g.r.Intn(3)
	for i := 0; i < nc; i++ {
		name := fmt.Sprintf("c%d", i)
		g.counters = append(g.counters, name)
		g.items = append(g.items, &ast.VarDecl{
			Type: &ast.TypeSpec{Kind: token.TUINT64},
			Name: name,
			Init: num(int64(g.r.Intn(3))),
		})
	}
	if g.r.Intn(100) < 50 {
		g.dicts = append(g.dicts, "d0")
		g.items = append(g.items, &ast.VarDecl{
			Type: &ast.TypeSpec{
				Kind: token.TDICT,
				Key:  &ast.TypeSpec{Kind: token.TINT},
				Elem: &ast.TypeSpec{Kind: token.TINT},
			},
			Name: "d0",
		})
	}
	if g.r.Intn(100) < 40 {
		g.vectors = append(g.vectors, "v0")
		g.items = append(g.items, &ast.VarDecl{
			Type: &ast.TypeSpec{Kind: token.TVECTOR, Elem: &ast.TypeSpec{Kind: token.TINT}},
			Name: "v0",
		})
	}
	if g.r.Intn(100) < 40 {
		g.strDicts = append(g.strDicts, "s0")
		g.items = append(g.items, &ast.VarDecl{
			Type: &ast.TypeSpec{
				Kind: token.TDICT,
				Key:  &ast.TypeSpec{Kind: token.TSTRING},
				Elem: &ast.TypeSpec{Kind: token.TINT},
			},
			Name: "s0",
		})
	}
	if g.r.Intn(100) < 40 {
		g.arrays = append(g.arrays, "a0")
		g.items = append(g.items, &ast.VarDecl{
			Type: &ast.TypeSpec{Kind: token.TINT, ArrayLen: arrayLen},
			Name: "a0",
		})
	}
}

func (g *progGen) genInit() {
	body := []ast.Stmt{assign(vid(g.counter()), num(int64(1+g.r.Intn(5))))}
	if g.r.Intn(100) < 50 {
		body = append(body, printStmt(str("init")))
	}
	g.items = append(g.items, &ast.InitBlock{Body: body})
}

// genExit prints every accumulator so the differential oracle compares
// final analysis state, not just per-probe fire counts.
func (g *progGen) genExit() {
	var body []ast.Stmt
	for _, c := range g.counters {
		body = append(body, printStmt(str(c), vid(c)))
	}
	for _, d := range g.dicts {
		body = append(body, printStmt(str(d), methodCall(d, "size")))
		if len(g.vectors) > 0 {
			// Sum d0 over v0, so the values loopBump leaves are observed.
			body = append(body,
				intDecl("sum", num(0)),
				forUpTo(methodCall("v0", "size"), incBy("sum", index(d, index("v0", vid("i"))))),
				printStmt(str(d+"v0"), vid("sum")))
		}
	}
	for _, v := range g.vectors {
		body = append(body, printStmt(str(v), methodCall(v, "size")))
	}
	for _, d := range g.strDicts {
		body = append(body, printStmt(str(d), methodCall(d, "size"), index(d, str(""))))
	}
	for _, a := range g.arrays {
		i := int64(g.r.Intn(arrayLen))
		body = append(body, printStmt(str(a), index(a, num(i))))
		body = append(body, forUpTo(num(arrayLen), incBy(g.counters[0], index(a, vid("i")))))
	}
	g.items = append(g.items, &ast.ExitBlock{Body: body})
}

func (g *progGen) counter() string {
	return g.counters[g.r.Intn(len(g.counters))]
}

func (g *progGen) freshVar(prefix string) string {
	g.nCFE++
	return fmt.Sprintf("%s%d", prefix, g.nCFE)
}

func (g *progGen) genCommand() {
	switch g.r.Intn(10) {
	case 0, 1, 2:
		g.items = append(g.items, g.instCmd())
	case 3, 4:
		g.items = append(g.items, g.blockCmd())
	case 5, 6:
		g.items = append(g.items, g.funcCmd())
	case 7:
		g.items = append(g.items, g.loopCmd())
	case 8:
		g.items = append(g.items, g.moduleCmd())
	case 9:
		g.items = append(g.items, g.nestedCmd())
	}
}

// maybeSample attaches a `sample N` clause (N in {2, 4, 8}) to the
// action with low probability. The differential runner then checks the
// per-placement every-Nth arithmetic against the program's unsampled
// twin (ClassSampling) in addition to the regular cross-backend matrix.
func (g *progGen) maybeSample(a *ast.Action) {
	if g.r.Intn(100) < 25 {
		a.Sample = int64(2 << g.r.Intn(3))
	}
}

// afterSafe lists opcodes on which an `after` trigger is legal on every
// backend (after a control transfer is rejected by Janus and priced
// differently elsewhere, so the generator never emits it).
var afterSafe = []string{"Load", "Store", "Mov", "Add", "Sub", "Mul", "Call"}

// whereOpcodes adds Branch/Return for before-only constraints.
var whereOpcodes = append([]string{"Branch", "Return"}, afterSafe...)

// otherOp picks an opcode of ops other than ops[i].
func (g *progGen) otherOp(ops []string, i int) string {
	return ops[(i+1+g.r.Intn(len(ops)-1))%len(ops)]
}

// callTargets lists names the generated victims call directly (workers,
// the allocator pair, the shared-library function), for trgname
// constraints.
var callTargets = []string{"f0", "f1", "malloc", "free", "libfn"}

// instCmd builds `inst I where (I.opcode == Op [...]) { trigger I { body } }`.
// The constraint is sometimes a disjunction of two opcodes — whose body
// then reads no opcode-specific dynamic attribute — or, on calls, a
// comparison of the call's target name; the action sometimes carries a
// static constraint that reads only I, which the hoisting pass decides.
func (g *progGen) instCmd() *ast.Command {
	v := g.freshVar("I")
	after := g.r.Intn(100) < 40
	ops := whereOpcodes
	if after {
		ops = afterSafe
	}
	i := g.r.Intn(len(ops))
	op := ops[i]
	where := bin(token.EQ, cfeAttr(v, "opcode"), opcode(op))
	bodyOp := op
	switch r := g.r.Intn(100); {
	case r < 20:
		where = bin(token.LOR, where, bin(token.EQ, cfeAttr(v, "opcode"), opcode(g.otherOp(ops, i))))
		bodyOp = ""
	case r < 40 && op == "Call":
		cmp := token.EQ
		if g.r.Intn(2) == 0 {
			cmp = token.NEQ
		}
		where = bin(token.LAND, where, bin(cmp, cfeAttr(v, "trgname"), str(callTargets[g.r.Intn(len(callTargets))])))
	}
	if g.r.Intn(100) < 30 {
		where = bin(token.LAND, where, bin(token.GE, cfeAttr(v, "size"), num(1)))
	}
	trigger := ast.Before
	if after {
		trigger = ast.After
	}
	act := &ast.Action{Trigger: trigger, Target: v, Body: g.instBody(v, bodyOp, after)}
	// Dynamic action constraint: a runtime guard over a dynamic
	// attribute, compiled into the probe body.
	if g.r.Intn(100) < 25 {
		switch bodyOp {
		case "Load":
			act.Where = bin(token.EQ, bin(token.PERCENT, cfeAttr(v, "memaddr"), num(2)), num(0))
		case "Call":
			act.Where = bin(token.GE, cfeAttr(v, "trgaddr"), num(1))
		}
	}
	if act.Where == nil && g.r.Intn(100) < 25 {
		// Defer-safe static action constraint.
		act.Where = bin(token.GE, cfeAttr(v, "size"), num(1))
		if g.r.Intn(2) == 0 {
			act.Where = bin(token.NEQ, bin(token.PERCENT, cfeAttr(v, "addr"), num(3)), num(0))
		}
	}
	g.maybeSample(act)
	return &ast.Command{EType: ast.Inst, Var: v, Where: where, Body: []ast.CmdItem{act}}
}

// instBody samples 1-2 action statements valid for the instruction
// constraint: counters, containers, static attrs, and opcode-gated
// dynamic attrs (memaddr for loads, dstaddr for stores, arg/rtnval for
// calls).
func (g *progGen) instBody(v, op string, after bool) []ast.Stmt {
	var pool []func() ast.Stmt
	pool = append(pool,
		func() ast.Stmt { return incBy(g.counter(), num(int64(1+g.r.Intn(3)))) },
		func() ast.Stmt { return incBy(g.counter(), cfeAttr(v, "size")) },
		func() ast.Stmt { return g.condInc() },
	)
	if len(g.dicts) > 0 {
		pool = append(pool, func() ast.Stmt { return dictBump(cfeAttr(v, "addr")) })
	}
	if len(g.vectors) > 0 {
		pool = append(pool, func() ast.Stmt { return addOnce(cfeAttr(v, "addr")) }, guardedGrow, g.strideWalk)
	}
	if len(g.dicts) > 0 && len(g.vectors) > 0 {
		pool = append(pool, loopBump)
	}
	if len(g.strDicts) > 0 {
		// A bump keyed by the call target's name ("" off direct calls):
		// boxed values beside the numeric ones.
		pool = append(pool, func() ast.Stmt {
			name := cfeAttr(v, "trgname")
			return assign(index("s0", name), bin(token.PLUS, index("s0", name), num(1)))
		})
	}
	if len(g.arrays) > 0 {
		pool = append(pool, func() ast.Stmt {
			i := bin(token.PERCENT, cfeAttr(v, "id"), num(arrayLen))
			return assign(index("a0", i), bin(token.PLUS, index("a0", i), num(1)))
		}, func() ast.Stmt {
			// A constant-index bump: promotable to a counter.
			i := num(int64(g.r.Intn(arrayLen)))
			return assign(index("a0", i), bin(token.PLUS, index("a0", i), num(int64(1+g.r.Intn(3)))))
		})
	}
	switch op {
	case "Load":
		pool = append(pool, func() ast.Stmt {
			return incBy(g.counter(), bin(token.PERCENT, cfeAttr(v, "memaddr"), num(7)))
		})
	case "Store":
		pool = append(pool, func() ast.Stmt {
			return incBy(g.counter(), bin(token.PERCENT, cfeAttr(v, "dstaddr"), num(5)))
		})
	case "Call":
		pool = append(pool, func() ast.Stmt {
			return incBy(g.counter(), bin(token.PERCENT, cfeAttr(v, "arg1"), num(9)))
		})

		if after {
			pool = append(pool, func() ast.Stmt {
				return incBy(g.counter(), bin(token.PERCENT, cfeAttr(v, "rtnval"), num(3)))
			})
		}
	}
	n := 1 + g.r.Intn(2)
	body := make([]ast.Stmt, 0, n)
	for i := 0; i < n; i++ {
		body = append(body, pool[g.r.Intn(len(pool))]())
	}
	return body
}

// dictBump builds `d0[key] = d0[key] + 1;`.
func dictBump(key ast.Expr) ast.Stmt {
	return assign(index("d0", key), bin(token.PLUS, index("d0", key), num(1)))
}

// addOnce builds `if (!v0.has(x)) { v0.add(x); }`.
func addOnce(x ast.Expr) ast.Stmt {
	return &ast.IfStmt{
		Cond: &ast.UnaryExpr{Op: token.NOT, X: methodCall("v0", "has", x)},
		Then: []ast.Stmt{callStmt(&ast.FieldExpr{X: vid("v0"), Name: "add"}, x)},
	}
}

// loopBump is the loop-coverage shape (Figure 6), whose int locals the
// compiled frame keeps in registers and whose d0 reads and writes go through
// the dict's int64 map:
//
//	for (int i = 0; i < v0.size(); i = i + 1) {
//	  int id = v0[i];
//	  if (d0[id] == 1) { d0[id] = d0[id] + 1; }
//	}
func loopBump() ast.Stmt {
	return forUpTo(methodCall("v0", "size"),
		intDecl("id", index("v0", vid("i"))),
		&ast.IfStmt{
			Cond: bin(token.EQ, index("d0", vid("id")), num(1)),
			Then: []ast.Stmt{dictBump(vid("id"))},
		})
}

// guardedGrow is a counted walk whose body grows the vector it walks,
// under a bound, so the walk sees elements added mid-loop:
//
//	for (int i = 0; i < v0.size(); i = i + 1) {
//	  if (v0.size() < 8) { v0.add(i); }
//	}
func guardedGrow() ast.Stmt {
	return forUpTo(methodCall("v0", "size"), &ast.IfStmt{
		Cond: bin(token.LT, methodCall("v0", "size"), num(8)),
		Then: []ast.Stmt{callStmt(&ast.FieldExpr{X: vid("v0"), Name: "add"}, vid("i"))},
	})
}

// strideWalk is a walk whose body assigns its counter, which keeps it a
// plain loop rather than a counted one:
//
//	for (int i = 0; i < v0.size(); i = i + 1) {
//	  cN = cN + v0[i] % 5;
//	  i = i + 1;
//	}
func (g *progGen) strideWalk() ast.Stmt {
	return forUpTo(methodCall("v0", "size"),
		incBy(g.counter(), bin(token.PERCENT, index("v0", vid("i")), num(5))),
		incBy("i", num(1)))
}

// condInc builds `if (cA % k == 0) { cB = cB + 1; } else { cB = cB + 2; }`.
func (g *progGen) condInc() ast.Stmt {
	ca, cb := g.counter(), g.counter()
	k := int64(2 + g.r.Intn(3))
	return &ast.IfStmt{
		Cond: bin(token.EQ, bin(token.PERCENT, vid(ca), num(k)), num(0)),
		Then: []ast.Stmt{incBy(cb, num(1))},
		Else: []ast.Stmt{incBy(cb, num(2))},
	}
}

func (g *progGen) blockCmd() *ast.Command {
	v := g.freshVar("B")
	cmd := &ast.Command{EType: ast.BasicBlock, Var: v}
	if g.r.Intn(100) < 40 {
		cmd.Where = bin(token.GE, cfeAttr(v, "ninsts"), num(int64(1+g.r.Intn(2))))
	}
	trigger := ast.Entry
	if g.r.Intn(100) < 30 {
		trigger = ast.Exit
	}
	act := &ast.Action{Trigger: trigger, Target: v, Body: []ast.Stmt{
		incBy(g.counter(), num(1)),
	}}
	if g.r.Intn(100) < 30 {
		act.Body = append(act.Body, incBy(g.counter(), cfeAttr(v, "ninsts")))
	}
	cmd.Body = []ast.CmdItem{act}
	if len(g.dicts) > 0 && len(g.vectors) > 0 && g.r.Intn(100) < 50 {
		// Loop coverage's own placement: the action records its block
		// (its static id a bind-time constant), and an action at the
		// block's other end walks everything recorded so far.
		id := cfeAttr(v, "id")
		act.Body = append(act.Body, addOnce(id), dictBump(id))
		other := ast.Exit
		if trigger == ast.Exit {
			other = ast.Entry
		}
		cmd.Body = append(cmd.Body, &ast.Action{Trigger: other, Target: v, Body: []ast.Stmt{loopBump()}})
	}
	if g.r.Intn(100) < 30 {
		// Static action constraint, filtered at instrumentation time.
		act.Where = bin(token.LE, cfeAttr(v, "ninsts"), num(64))
	}
	g.maybeSample(act)
	return cmd
}

func (g *progGen) funcCmd() *ast.Command {
	v := g.freshVar("F")
	cmd := &ast.Command{EType: ast.Func, Var: v}
	if g.r.Intn(100) < 40 {
		cmd.Where = bin(token.GE, cfeAttr(v, "nblocks"), num(1))
	}
	if g.r.Intn(100) < 30 {
		// Analysis code: a print, and an if whose body declares a local
		// and folds it into a global at instrumentation time.
		cmd.Body = append(cmd.Body,
			ast.Stmt(printStmt(str("an"), cfeAttr(v, "name"), cfeAttr(v, "ninsts"))),
			ast.Stmt(&ast.IfStmt{
				Cond: bin(token.GT, cfeAttr(v, "ninsts"), num(int64(2+g.r.Intn(6)))),
				Then: []ast.Stmt{
					intDecl("w", bin(token.PERCENT, cfeAttr(v, "ninsts"), num(5))),
					incBy(g.counter(), vid("w")),
				},
			}))
	}
	entry := &ast.Action{Trigger: ast.Entry, Target: v, Body: []ast.Stmt{
		incBy(g.counter(), num(1)),
	}}
	if g.r.Intn(100) < 25 {
		entry.Body = append(entry.Body, printStmt(str("fn"), cfeAttr(v, "name")))
	}
	g.maybeSample(entry)
	cmd.Body = append(cmd.Body, entry)
	if g.r.Intn(100) < 60 {
		exit := &ast.Action{Trigger: ast.Exit, Target: v, Body: []ast.Stmt{
			incBy(g.counter(), num(2)),
		}}
		g.maybeSample(exit)
		cmd.Body = append(cmd.Body, exit)
	}
	return cmd
}

// loopCmd builds a loop command (nested in a func command half the
// time, mirroring both forms the case studies use). Plain Pin has no
// notion of loops, so generating one marks the program UsesLoops.
func (g *progGen) loopCmd() ast.TopItem {
	g.usesLoops = true
	lv := g.freshVar("L")
	var body []ast.CmdItem
	triggers := []ast.Trigger{ast.Entry}
	if g.r.Intn(100) < 60 {
		triggers = append(triggers, ast.Iter)
	}
	if g.r.Intn(100) < 60 {
		triggers = append(triggers, ast.Exit)
	}
	for _, tr := range triggers {
		act := &ast.Action{Trigger: tr, Target: lv, Body: []ast.Stmt{
			incBy(g.counter(), num(1)),
		}}
		g.maybeSample(act)
		body = append(body, act)
	}
	loop := &ast.Command{EType: ast.Loop, Var: lv, Body: body}
	if g.r.Intn(100) < 50 {
		fv := g.freshVar("F")
		return &ast.Command{EType: ast.Func, Var: fv, Body: []ast.CmdItem{loop}}
	}
	return loop
}

// moduleCmd is analysis-only: module commands run at instrumentation
// time, once per module the backend sees — which is itself a documented
// divergence source (Pin sees shared libraries).
func (g *progGen) moduleCmd() *ast.Command {
	v := g.freshVar("M")
	return &ast.Command{EType: ast.Module, Var: v, Body: []ast.CmdItem{
		ast.Stmt(printStmt(str("mod"), cfeAttr(v, "name"))),
		ast.Stmt(incBy(g.counter(), num(1))),
	}}
}

// nestedCmd mirrors the Figure 5b idiom: a block-local analysis counter
// accumulated by a nested inst command and captured into the block's
// entry action (exercising closure capture, NumCaptured, and static
// action constraints over analysis state). The nested command's
// constraint is an opcode, a disjunction of two, or an opcode and a
// bound that reads the outer analysis local and the outer block's
// static attribute, which the nested command's own analysis code moves.
// Sometimes the nested command also places an action that reads the
// block's ninsts, and the block prints its count at analysis time.
func (g *progGen) nestedCmd() *ast.Command {
	bv := g.freshVar("B")
	iv := g.freshVar("I")
	i := g.r.Intn(len(whereOpcodes))
	local := fmt.Sprintf("n%s", bv)
	where := bin(token.EQ, cfeAttr(iv, "opcode"), opcode(whereOpcodes[i]))
	switch g.r.Intn(3) {
	case 1:
		where = bin(token.LOR, where, bin(token.EQ, cfeAttr(iv, "opcode"), opcode(g.otherOp(whereOpcodes, i))))
	case 2:
		where = bin(token.LAND, where, bin(token.LT, bin(token.STAR, vid(local), num(2)), cfeAttr(bv, "ninsts")))
	}
	inner := &ast.Command{
		EType: ast.Inst, Var: iv, Where: where,
		Body: []ast.CmdItem{ast.Stmt(incBy(local, num(1)))},
	}
	if g.r.Intn(100) < 40 {
		// An action of the nested command reading the outer block's
		// static attribute: a bind-time constant from an outer cell.
		inner.Body = append(inner.Body, &ast.Action{Trigger: ast.Before, Target: iv, Body: []ast.Stmt{
			incBy(g.counter(), cfeAttr(bv, "ninsts")),
		}})
	}
	act := &ast.Action{
		Trigger: ast.Entry, Target: bv,
		Where: bin(token.GE, vid(local), num(1)),
		Body:  []ast.Stmt{incBy(g.counter(), vid(local))},
	}
	g.maybeSample(act)
	body := []ast.CmdItem{
		ast.Stmt(&ast.DeclStmt{Decl: &ast.VarDecl{
			Type: &ast.TypeSpec{Kind: token.TUINT64}, Name: local, Init: num(0),
		}}),
		inner,
	}
	if g.r.Intn(100) < 25 {
		body = append(body, ast.Stmt(printStmt(str(local), vid(local))))
	}
	return &ast.Command{EType: ast.BasicBlock, Var: bv, Body: append(body, act)}
}
