package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Shadow-stack backward-edge CFI written directly against the Dyninst
// API: push snippets before every call site (fall-through as a constant
// expression), check snippets before every return (dynamic target
// expression).
func init() { register("dyninst", "shadowstack", dyninstShadowStack) }

func dyninstShadowStack(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	var shadow []uint64

	push := func(args []uint64) { shadow = append(shadow, args[0]) }
	check := dyninst.FuncCallExpr{
		Fn: func(args []uint64) {
			if len(shadow) > 0 && shadow[len(shadow)-1] == args[0] {
				shadow = shadow[:len(shadow)-1]
			} else {
				fmt.Fprintln(out, "ERROR")
			}
		},
		Args: []dyninst.Snippet{dyninst.BranchTargetExpr{}},
		Cost: 3 * stmtCost,
	}

	for _, fn := range image.Functions() {
		for _, bb := range fn.Blocks() {
			points := bb.InstPoints()
			for n, in := range bb.Instructions() {
				switch in.Op {
				case isa.Call:
					pushSnippet := dyninst.FuncCallExpr{
						Fn:   push,
						Args: []dyninst.Snippet{dyninst.ConstExpr{Val: in.Next()}},
						Cost: 3 * stmtCost,
					}
					if err := be.InsertSnippet(pushSnippet, points[n], dyninst.CallBefore); err != nil {
						return nil, err
					}
				case isa.Return:
					if err := be.InsertSnippet(check, points[n], dyninst.CallBefore); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return be.Run()
}
