package interp

import (
	"fmt"
	"strings"

	"repro/internal/core/ast"
	"repro/internal/core/value"
	"repro/internal/isa"
)

// AttrFn reads one static attribute of a control-flow element of the
// kind it was resolved for.
type AttrFn func(ref *value.CFERef) value.Value

// staticAttrs holds every static attribute reader by element kind and
// lower-case attribute name.
var staticAttrs = map[ast.EType]map[string]AttrFn{
	ast.Inst: {
		"opcode":   func(r *value.CFERef) value.Value { return value.OpcodeVal(r.Inst.Op) },
		"addr":     func(r *value.CFERef) value.Value { return value.UintVal(r.Inst.Addr) },
		"id":       func(r *value.CFERef) value.Value { return value.UintVal(r.Inst.Addr) },
		"size":     func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Inst.Size)) },
		"nextaddr": func(r *value.CFERef) value.Value { return value.UintVal(r.Inst.Next()) },
		"numops":   func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Inst.NumOps())) },
		"op1":      func(r *value.CFERef) value.Value { return value.OperandVal(r.Inst.Operand(0)) },
		"op2":      func(r *value.CFERef) value.Value { return value.OperandVal(r.Inst.Operand(1)) },
		"op3":      func(r *value.CFERef) value.Value { return value.OperandVal(r.Inst.Operand(2)) },
		"trgname": func(r *value.CFERef) value.Value {
			if tgt, ok := r.Inst.IsDirectTarget(); ok && r.Inst.Op == isa.Call {
				return value.StrVal(r.Prog.Obj.NameAt(tgt))
			}
			return value.StrVal("")
		},
	},
	ast.BasicBlock: {
		"id":        func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Block.ID)) },
		"startaddr": func(r *value.CFERef) value.Value { return value.UintVal(r.Block.Start) },
		"endaddr":   func(r *value.CFERef) value.Value { return value.UintVal(r.Block.End) },
		"size":      func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Block.Insts))) },
		"ninsts":    func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Block.Insts))) },
	},
	ast.Func: {
		"id":        func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Func.ID)) },
		"name":      func(r *value.CFERef) value.Value { return value.StrVal(r.Func.Name) },
		"startaddr": func(r *value.CFERef) value.Value { return value.UintVal(r.Func.Entry) },
		"endaddr":   func(r *value.CFERef) value.Value { return value.UintVal(r.Func.End) },
		"ninsts":    func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Func.NumInsts())) },
		"nblocks":   func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Func.Blocks))) },
		"nloops":    func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Func.Loops))) },
	},
	ast.Loop: {
		"id":        func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Loop.ID)) },
		"startaddr": func(r *value.CFERef) value.Value { return value.UintVal(r.Loop.Header.Start) },
		"depth":     func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Loop.Depth)) },
		"nblocks":   func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Loop.Blocks))) },
	},
	ast.Module: {
		"id":           func(r *value.CFERef) value.Value { return value.IntVal(int64(r.Module.ID)) },
		"name":         func(r *value.CFERef) value.Value { return value.StrVal(r.Module.Name()) },
		"nfuncs":       func(r *value.CFERef) value.Value { return value.IntVal(int64(len(r.Module.Funcs))) },
		"isexecutable": func(r *value.CFERef) value.Value { return value.BoolVal(r.Module.ID == 0) },
	},
}

// StaticAttrOf resolves static attribute name (in any case) of the
// elements of kind k to its reader, once; nil when there is none.
func StaticAttrOf(k ast.EType, name string) AttrFn {
	return staticAttrs[k][strings.ToLower(name)]
}

// StaticAttr computes a static control-flow-element attribute from the
// recovered CFG structures. Dynamic attributes never reach here: semantic
// analysis routes them through the probe's materialized values.
func StaticAttr(ref *value.CFERef, name string) (value.Value, error) {
	if fn := StaticAttrOf(ref.Kind, name); fn != nil {
		return fn(ref), nil
	}
	return value.Null, fmt.Errorf("cinnamon: %s has no static attribute %q", ref, strings.ToLower(name))
}
