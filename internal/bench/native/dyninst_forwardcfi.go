package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Forward-edge CFI written directly against the Dyninst API: collect
// every function entry from the image, then insert a target check before
// every call site.
func init() { register("dyninst", "forwardcfi", dyninstForwardCFI) }

func dyninstForwardCFI(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	valid := make(map[uint64]bool)
	for _, fn := range image.Functions() {
		valid[fn.Address()] = true
	}
	check := dyninst.FuncCallExpr{
		Fn: func(args []uint64) {
			if !valid[args[0]] {
				fmt.Fprintln(out, "ERROR")
			}
		},
		Args: []dyninst.Snippet{dyninst.BranchTargetExpr{}},
		Cost: 2 * stmtCost,
	}
	for _, fn := range image.Functions() {
		for _, bb := range fn.Blocks() {
			points := bb.InstPoints()
			for n, in := range bb.Instructions() {
				if in.Op != isa.Call {
					continue
				}
				if err := be.InsertSnippet(check, points[n], dyninst.CallBefore); err != nil {
					return nil, err
				}
			}
		}
	}
	return be.Run()
}
