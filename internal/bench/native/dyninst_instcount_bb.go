package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Low-overhead instruction counting written directly against the Dyninst
// API (the Figure 13 baseline): count the loads of each basic block
// statically, then insert one snippet at the block's entry that adds the
// precomputed value.
func init() { register("dyninst", "instcount_bb", dyninstInstCountBB) }

func dyninstInstCountBB(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	var instCount uint64
	for _, fn := range image.Functions() {
		for _, bb := range fn.Blocks() {
			local := uint64(0)
			for _, in := range bb.Instructions() {
				if in.Op == isa.Load {
					local++
				}
			}
			if local == 0 {
				continue
			}
			localCount := local
			add := dyninst.FuncCallExpr{
				Fn:   func([]uint64) { instCount += localCount },
				Cost: 1 * stmtCost,
			}
			if err := be.InsertSnippet(add, bb.EntryPoint(), dyninst.CallBefore); err != nil {
				return nil, err
			}
		}
	}
	be.OnFini(func() {
		fmt.Fprintf(out, "%d\n", instCount)
	})
	return be.Run()
}
