// Package interp evaluates Cinnamon statements and expressions. The same
// evaluator serves both stages of a tool's life:
//
//   - the analysis/instrumentation stage, where command bodies and static
//     constraints run over control-flow elements and may read static CFE
//     attributes; and
//   - the execution stage, where instrumented action bodies run inside
//     probes, reading captured analysis data, shared globals, and the
//     dynamic attribute values the backend materialized.
//
// Tool I/O goes through an in-memory file system (FS) shared between
// stages — this is how Figure 9's analysis pass hands function addresses
// to its init block — and a tool output writer for print().
package interp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/sem"
	"repro/internal/core/token"
	"repro/internal/core/types"
	"repro/internal/core/value"
	"repro/internal/isa"
)

// MaxLoopIters bounds a single for-statement's iterations; exceeding it
// is a runtime error (runaway tool loops would otherwise hang the
// instrumentation stage).
const MaxLoopIters = 50_000_000

// RuntimeError is a tool runtime error with its source position.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("cinnamon: %s: %s", e.Pos, e.Msg) }

// FS is the tool's in-memory file system.
type FS struct {
	files map[string]*value.FileVal
}

// NewFS returns an empty file system.
func NewFS() *FS { return &FS{files: make(map[string]*value.FileVal)} }

// Open returns the named file handle, creating it if needed. Handles are
// shared: all opens of one name see the same contents and read cursor.
func (fs *FS) Open(name string) *value.FileVal {
	f, ok := fs.files[name]
	if !ok {
		f = &value.FileVal{Name: name}
		fs.files[name] = f
	}
	return f
}

// Names returns the names of all files, sorted.
func (fs *FS) Names() []string {
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Env is a lexical scope: a chain of frames mapping names to mutable
// values.
type Env struct {
	parent *Env
	vars   map[string]*value.Value
	// dyn holds materialized dynamic attribute values for the current
	// probe invocation, keyed "I.memaddr".
	dyn map[string]value.Value
}

// NewEnv returns a fresh scope under parent (nil for the root).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: make(map[string]*value.Value)}
}

// Define binds a new variable in this scope.
func (e *Env) Define(name string, v value.Value) {
	vv := v
	e.vars[name] = &vv
}

// Lookup finds the innermost binding of name.
func (e *Env) Lookup(name string) *value.Value {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v
		}
	}
	return nil
}

// SetDyn installs the dynamic attribute map for a probe invocation.
func (e *Env) SetDyn(dyn map[string]value.Value) { e.dyn = dyn }

// VarNames returns the names bound directly in this frame (not parents).
func (e *Env) VarNames() map[string]struct{} {
	out := make(map[string]struct{}, len(e.vars))
	for n := range e.vars {
		out[n] = struct{}{}
	}
	return out
}

func (e *Env) lookupDyn(key string) (value.Value, bool) {
	for s := e; s != nil; s = s.parent {
		if s.dyn != nil {
			if v, ok := s.dyn[key]; ok {
				return v, true
			}
		}
	}
	return value.Value{}, false
}

// Snapshot copies the scope chain from env up to (excluding) stop into a
// single new frame whose parent is stop: the by-value capture of analysis
// data into an action closure. Inner bindings shadow outer ones; globals
// (at and above stop) stay shared.
func Snapshot(env, stop *Env) *Env {
	snap := NewEnv(stop)
	seen := make(map[string]bool)
	for s := env; s != nil && s != stop; s = s.parent {
		for name, v := range s.vars {
			if !seen[name] {
				seen[name] = true
				snap.Define(name, value.Copy(*v))
			}
		}
	}
	return snap
}

// Interp evaluates statements and expressions against an Env.
type Interp struct {
	// Info is the semantic analysis result (declaration types).
	Info *sem.Info
	// Out receives print() output.
	Out io.Writer
	// FS is the tool file system.
	FS *FS
}

// New returns an interpreter.
func New(info *sem.Info, out io.Writer, fs *FS) *Interp {
	if out == nil {
		out = io.Discard
	}
	if fs == nil {
		fs = NewFS()
	}
	return &Interp{Info: info, Out: out, FS: fs}
}

func (in *Interp) errf(pos token.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ZeroValue returns the zero value of a type (dicts and vectors are
// allocated empty; arrays are zero-filled).
func ZeroValue(t *types.Type) value.Value {
	switch t.Kind {
	case types.Bool:
		return value.BoolVal(false)
	case types.String, types.Line:
		return value.StrVal("")
	case types.Dict:
		return value.Value{Kind: value.KDict, Dict: value.NewDict(t.Key.Kind == types.String, ZeroValue(t.Elem))}
	case types.Vector:
		return value.Value{Kind: value.KVector, Vec: &value.VectorVal{}}
	case types.Array:
		elems := make([]value.Value, t.Len)
		for i := range elems {
			elems[i] = ZeroValue(t.Elem)
		}
		return value.Value{Kind: value.KArray, Arr: &value.ArrayVal{Elems: elems}}
	case types.Opcode:
		return value.OpcodeVal(isa.Nop)
	default:
		return value.IntVal(0)
	}
}

// DeclareGlobal evaluates a global declaration into env.
func (in *Interp) DeclareGlobal(env *Env, d *ast.VarDecl) error {
	t := in.Info.DeclTypes[d]
	if t == nil {
		return in.errf(d.P, "internal: declaration %s has no type", d.Name)
	}
	if t.Kind == types.File {
		nameV, err := in.Eval(env, d.Args[0])
		if err != nil {
			return err
		}
		f := in.FS.Open(nameV.Str)
		env.Define(d.Name, value.Value{Kind: value.KFile, File: f})
		return nil
	}
	return in.declare(env, d, t)
}

func (in *Interp) declare(env *Env, d *ast.VarDecl, t *types.Type) error {
	v := ZeroValue(t)
	if d.Init != nil {
		iv, err := in.Eval(env, d.Init)
		if err != nil {
			return err
		}
		v = convert(iv, t)
	}
	env.Define(d.Name, v)
	return nil
}

// Convert adapts a value to a declared type; it is exported for the
// closure compiler, which must apply exactly the interpreter's coercions.
func Convert(v value.Value, t *types.Type) value.Value { return convert(v, t) }

// convert adapts a value to a declared type (numeric coercions, line
// parsing).
func convert(v value.Value, t *types.Type) value.Value {
	switch {
	case t.IsNumeric():
		return value.IntVal(v.AsInt())
	case t.Kind == types.Bool:
		return value.BoolVal(v.AsBool())
	case t.IsStringy():
		if v.Kind == value.KString {
			return v
		}
		if v.Kind == value.KNull {
			return value.Null
		}
		return value.StrVal(v.String())
	default:
		return v
	}
}

// ExecStmts executes a statement list in env.
func (in *Interp) ExecStmts(env *Env, stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := in.ExecStmt(env, s); err != nil {
			return err
		}
	}
	return nil
}

// ExecStmt executes one statement.
func (in *Interp) ExecStmt(env *Env, s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.DeclStmt:
		t := in.Info.DeclTypes[st.Decl]
		if t == nil {
			return in.errf(st.Decl.P, "internal: declaration %s has no type", st.Decl.Name)
		}
		return in.declare(env, st.Decl, t)
	case *ast.AssignStmt:
		return in.assign(env, st)
	case *ast.ExprStmt:
		_, err := in.Eval(env, st.X)
		return err
	case *ast.IfStmt:
		cond, err := in.Eval(env, st.Cond)
		if err != nil {
			return err
		}
		if cond.AsBool() {
			return in.ExecStmts(NewEnv(env), st.Then)
		}
		return in.ExecStmts(NewEnv(env), st.Else)
	case *ast.ForStmt:
		scope := NewEnv(env)
		if st.Init != nil {
			if err := in.ExecStmt(scope, st.Init); err != nil {
				return err
			}
		}
		for iters := 0; ; iters++ {
			if iters >= MaxLoopIters {
				return in.errf(st.P, "for statement exceeded %d iterations", MaxLoopIters)
			}
			if st.Cond != nil {
				cond, err := in.Eval(scope, st.Cond)
				if err != nil {
					return err
				}
				if !cond.AsBool() {
					return nil
				}
			}
			if len(st.Body) > 0 {
				if err := in.ExecStmts(NewEnv(scope), st.Body); err != nil {
					return err
				}
			}
			if st.Post != nil {
				if err := in.ExecStmt(scope, st.Post); err != nil {
					return err
				}
			}
		}
	}
	return in.errf(s.Pos(), "invalid statement")
}

func (in *Interp) assign(env *Env, st *ast.AssignStmt) error {
	rhs, err := in.Eval(env, st.RHS)
	if err != nil {
		return err
	}
	switch lhs := st.LHS.(type) {
	case *ast.Ident:
		slot := env.Lookup(lhs.Name)
		if slot == nil {
			return in.errf(lhs.P, "undefined: %s", lhs.Name)
		}
		if t := in.Info.Types[st.LHS]; t != nil {
			*slot = convert(rhs, t)
		} else {
			*slot = rhs
		}
		return nil
	case *ast.IndexExpr:
		base, err := in.Eval(env, lhs.X)
		if err != nil {
			return err
		}
		idx, err := in.Eval(env, lhs.Index)
		if err != nil {
			return err
		}
		switch base.Kind {
		case value.KDict:
			base.Dict.Set(idx, convert(rhs, elemTypeOf(in, lhs.X)))
			return nil
		case value.KArray:
			i := idx.AsInt()
			if i < 0 || i >= int64(len(base.Arr.Elems)) {
				return in.errf(lhs.P, "array index %d out of range [0,%d)", i, len(base.Arr.Elems))
			}
			base.Arr.Elems[i] = convert(rhs, elemTypeOf(in, lhs.X))
			return nil
		case value.KVector:
			i := idx.AsInt()
			if i < 0 || i >= int64(len(base.Vec.Elems)) {
				return in.errf(lhs.P, "vector index %d out of range [0,%d)", i, len(base.Vec.Elems))
			}
			base.Vec.Elems[i] = convert(rhs, elemTypeOf(in, lhs.X))
			return nil
		}
		return in.errf(lhs.P, "value is not indexable")
	}
	return in.errf(st.P, "invalid assignment target")
}

func elemTypeOf(in *Interp, base ast.Expr) *types.Type {
	if t := in.Info.Types[base]; t != nil && t.Elem != nil {
		return t.Elem
	}
	return types.Basic(types.Int)
}

// Eval evaluates an expression.
func (in *Interp) Eval(env *Env, e ast.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return value.IntVal(x.Val), nil
	case *ast.StringLit:
		return value.StrVal(x.Val), nil
	case *ast.CharLit:
		return value.IntVal(int64(x.Val)), nil
	case *ast.BoolLit:
		return value.BoolVal(x.Val), nil
	case *ast.NullLit:
		return value.Null, nil
	case *ast.OpcodeLit:
		op, ok := opcodeByName[x.Name]
		if !ok {
			return value.Null, in.errf(x.P, "unknown opcode %s", x.Name)
		}
		return value.OpcodeVal(op), nil
	case *ast.Ident:
		slot := env.Lookup(x.Name)
		if slot == nil {
			return value.Null, in.errf(x.P, "undefined: %s", x.Name)
		}
		return *slot, nil
	case *ast.FieldExpr:
		return in.evalField(env, x)
	case *ast.IndexExpr:
		base, err := in.Eval(env, x.X)
		if err != nil {
			return value.Null, err
		}
		idx, err := in.Eval(env, x.Index)
		if err != nil {
			return value.Null, err
		}
		switch base.Kind {
		case value.KDict:
			return base.Dict.Get(idx), nil
		case value.KVector:
			return base.Vec.Get(idx.AsInt()), nil
		case value.KArray:
			i := idx.AsInt()
			if i < 0 || i >= int64(len(base.Arr.Elems)) {
				return value.Null, in.errf(x.P, "array index %d out of range [0,%d)", i, len(base.Arr.Elems))
			}
			return base.Arr.Elems[i], nil
		}
		return value.Null, in.errf(x.P, "value is not indexable")
	case *ast.CallExpr:
		return in.evalCall(env, x)
	case *ast.IsTypeExpr:
		v, err := in.Eval(env, x.X)
		if err != nil {
			return value.Null, err
		}
		if v.Kind != value.KOperand {
			return value.Null, in.errf(x.P, "IsType requires an operand")
		}
		var want isa.OperandKind
		switch x.OpType {
		case token.KMEM:
			want = isa.KindMem
		case token.KREG:
			want = isa.KindReg
		case token.KCONST:
			want = isa.KindImm
		}
		return value.BoolVal(v.Opnd.Kind == want), nil
	case *ast.UnaryExpr:
		v, err := in.Eval(env, x.X)
		if err != nil {
			return value.Null, err
		}
		switch x.Op {
		case token.NOT:
			return value.BoolVal(!v.AsBool()), nil
		case token.MINUS:
			return value.IntVal(-v.AsInt()), nil
		}
		return value.Null, in.errf(x.P, "invalid unary operator")
	case *ast.BinaryExpr:
		return in.evalBinary(env, x)
	}
	return value.Null, in.errf(e.Pos(), "invalid expression")
}

// OpcodeFromName resolves a Cinnamon opcode keyword to a machine opcode.
func OpcodeFromName(name string) (isa.Op, bool) {
	op, ok := opcodeByName[name]
	return op, ok
}

// opcodeByName maps Cinnamon opcode keywords to machine opcodes.
var opcodeByName = map[string]isa.Op{
	"Call": isa.Call, "Mov": isa.Mov, "Load": isa.Load, "Store": isa.Store,
	"Branch": isa.Branch, "Return": isa.Return, "Add": isa.Add, "Sub": isa.Sub,
	"Mul": isa.Mul, "Div": isa.Div, "GetPtr": isa.GetPtr, "Nop": isa.Nop,
	"Halt": isa.Halt,
}

func (in *Interp) evalField(env *Env, x *ast.FieldExpr) (value.Value, error) {
	// Dynamic attributes resolve from the probe's materialized values.
	if in.Info.DynamicExprs[x] {
		id, ok := x.X.(*ast.Ident)
		if !ok {
			return value.Null, in.errf(x.P, "internal: dynamic attribute on non-identifier")
		}
		key := id.Name + "." + strings.ToLower(x.Name)
		if v, ok := env.lookupDyn(key); ok {
			return v, nil
		}
		return value.Null, in.errf(x.P, "dynamic attribute %s not materialized (is this running outside a probe?)", key)
	}
	base, err := in.Eval(env, x.X)
	if err != nil {
		return value.Null, err
	}
	if base.Kind != value.KCFE {
		return value.Null, in.errf(x.P, "value has no attributes")
	}
	return StaticAttr(base.CFE, x.Name)
}

func (in *Interp) evalCall(env *Env, x *ast.CallExpr) (value.Value, error) {
	switch fun := x.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "print":
			parts := make([]string, 0, len(x.Args))
			for _, a := range x.Args {
				v, err := in.Eval(env, a)
				if err != nil {
					return value.Null, err
				}
				parts = append(parts, v.String())
			}
			fmt.Fprintln(in.Out, strings.Join(parts, " "))
			return value.Value{}, nil
		case "writeToFile":
			fv, err := in.Eval(env, x.Args[0])
			if err != nil {
				return value.Null, err
			}
			v, err := in.Eval(env, x.Args[1])
			if err != nil {
				return value.Null, err
			}
			if fv.Kind != value.KFile {
				return value.Null, in.errf(x.P, "writeToFile requires a file")
			}
			fv.File.WriteLine(v.String())
			return value.Value{}, nil
		}
		return value.Null, in.errf(x.P, "unknown function %q", fun.Name)
	case *ast.FieldExpr:
		recv, err := in.Eval(env, fun.X)
		if err != nil {
			return value.Null, err
		}
		return in.evalMethod(env, x, recv, fun.Name)
	}
	return value.Null, in.errf(x.P, "invalid call")
}

func (in *Interp) evalMethod(env *Env, x *ast.CallExpr, recv value.Value, name string) (value.Value, error) {
	arg := func(i int) (value.Value, error) { return in.Eval(env, x.Args[i]) }
	switch recv.Kind {
	case value.KVector:
		switch name {
		case "add":
			v, err := arg(0)
			if err != nil {
				return value.Null, err
			}
			recv.Vec.Add(convert(v, elemTypeOf(in, funReceiver(x))))
			return value.Value{}, nil
		case "has":
			v, err := arg(0)
			if err != nil {
				return value.Null, err
			}
			return value.BoolVal(recv.Vec.Has(convert(v, elemTypeOf(in, funReceiver(x))))), nil
		case "size":
			return value.IntVal(int64(len(recv.Vec.Elems))), nil
		}
	case value.KDict:
		switch name {
		case "has":
			v, err := arg(0)
			if err != nil {
				return value.Null, err
			}
			return value.BoolVal(recv.Dict.Has(v)), nil
		case "size":
			return value.IntVal(int64(recv.Dict.Len())), nil
		}
	case value.KFile:
		switch name {
		case "getline":
			return recv.File.GetLine(), nil
		}
	}
	return value.Null, in.errf(x.P, "invalid method %q", name)
}

func funReceiver(x *ast.CallExpr) ast.Expr {
	return x.Fun.(*ast.FieldExpr).X
}

func (in *Interp) evalBinary(env *Env, x *ast.BinaryExpr) (value.Value, error) {
	// Short-circuit logical operators.
	if x.Op == token.LAND || x.Op == token.LOR {
		l, err := in.Eval(env, x.X)
		if err != nil {
			return value.Null, err
		}
		if x.Op == token.LAND && !l.AsBool() {
			return value.BoolVal(false), nil
		}
		if x.Op == token.LOR && l.AsBool() {
			return value.BoolVal(true), nil
		}
		r, err := in.Eval(env, x.Y)
		if err != nil {
			return value.Null, err
		}
		return value.BoolVal(r.AsBool()), nil
	}
	l, err := in.Eval(env, x.X)
	if err != nil {
		return value.Null, err
	}
	r, err := in.Eval(env, x.Y)
	if err != nil {
		return value.Null, err
	}
	switch x.Op {
	case token.EQ:
		return value.BoolVal(value.Equal(l, r)), nil
	case token.NEQ:
		return value.BoolVal(!value.Equal(l, r)), nil
	case token.LT, token.LE, token.GT, token.GE:
		if l.Kind == value.KString && r.Kind == value.KString {
			return value.BoolVal(compareOrdered(x.Op, strings.Compare(l.Str, r.Str))), nil
		}
		a, b := l.AsInt(), r.AsInt()
		switch {
		case a < b:
			return value.BoolVal(compareOrdered(x.Op, -1)), nil
		case a > b:
			return value.BoolVal(compareOrdered(x.Op, 1)), nil
		default:
			return value.BoolVal(compareOrdered(x.Op, 0)), nil
		}
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.AMP, token.PIPE, token.CARET, token.SHL, token.SHR:
		a, b := l.AsInt(), r.AsInt()
		switch x.Op {
		case token.PLUS:
			return value.IntVal(a + b), nil
		case token.MINUS:
			return value.IntVal(a - b), nil
		case token.STAR:
			return value.IntVal(a * b), nil
		case token.SLASH:
			if b == 0 {
				return value.Null, in.errf(x.P, "division by zero")
			}
			return value.IntVal(a / b), nil
		case token.PERCENT:
			if b == 0 {
				return value.Null, in.errf(x.P, "division by zero")
			}
			return value.IntVal(a % b), nil
		case token.AMP:
			return value.IntVal(a & b), nil
		case token.PIPE:
			return value.IntVal(a | b), nil
		case token.CARET:
			return value.IntVal(a ^ b), nil
		case token.SHL:
			return value.IntVal(a << (uint64(b) & 63)), nil
		case token.SHR:
			return value.IntVal(int64(uint64(a) >> (uint64(b) & 63))), nil
		}
	}
	return value.Null, in.errf(x.P, "invalid operator")
}

func compareOrdered(op token.Kind, cmp int) bool {
	switch op {
	case token.LT:
		return cmp < 0
	case token.LE:
		return cmp <= 0
	case token.GT:
		return cmp > 0
	case token.GE:
		return cmp >= 0
	}
	return false
}
