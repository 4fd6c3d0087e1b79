package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Instruction counting written directly against the Dyninst API: open the
// binary for editing, walk every function's basic blocks, and insert a
// counting snippet before each load instruction.
func init() { register("dyninst", "instcount", dyninstInstCount) }

func dyninstInstCount(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	var instCount uint64
	countSnippet := dyninst.FuncCallExpr{
		Fn:   func([]uint64) { instCount++ },
		Cost: 1 * stmtCost,
	}
	for _, fn := range image.Functions() {
		for _, bb := range fn.Blocks() {
			points := bb.InstPoints()
			for n, in := range bb.Instructions() {
				if in.Op != isa.Load {
					continue
				}
				if err := be.InsertSnippet(countSnippet, points[n], dyninst.CallBefore); err != nil {
					return nil, err
				}
			}
		}
	}
	be.OnFini(func() {
		fmt.Fprintf(out, "%d\n", instCount)
	})
	return be.Run()
}
