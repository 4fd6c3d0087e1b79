package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Use-after-free monitoring written directly against the Dyninst API: the
// mutator walks every call site, resolves the called function through the
// image's symbol information, and inserts snippets that pass the malloc
// size (BPatch_paramExpr), the returned base (BPatch_retExpr) and each
// access's effective address (BPatch_effectiveAddressExpr) to the
// tracking callbacks.
func init() { register("dyninst", "useafterfree", dyninstUseAfterFree) }

func dyninstUseAfterFree(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	freed := make(map[uint64]bool)
	baseTable := make(map[uint64]uint64)
	var size uint64

	recordSize := dyninst.FuncCallExpr{
		Fn:   func(args []uint64) { size = args[0] },
		Args: []dyninst.Snippet{dyninst.ParamExpr{N: 1}},
		Cost: 1 * stmtCost,
	}
	recordAlloc := dyninst.FuncCallExpr{
		Fn: func(args []uint64) {
			base := args[0]
			for a := base; a < base+size; a++ {
				baseTable[a] = base
			}
			freed[base] = false
		},
		Args: []dyninst.Snippet{dyninst.RetExpr{}},
		Cost: 6 * stmtCost,
	}
	recordFree := dyninst.FuncCallExpr{
		Fn:   func(args []uint64) { freed[args[0]] = true },
		Args: []dyninst.Snippet{dyninst.ParamExpr{N: 1}},
		Cost: 2 * stmtCost,
	}
	checkAccess := dyninst.FuncCallExpr{
		Fn: func(args []uint64) {
			if base, ok := baseTable[args[0]]; ok && freed[base] {
				fmt.Fprintln(out, "ERROR: use after free access")
			}
		},
		Args: []dyninst.Snippet{dyninst.EffectiveAddressExpr{}},
		Cost: 6 * stmtCost,
	}

	for _, fn := range image.Functions() {
		for _, bb := range fn.Blocks() {
			points := bb.InstPoints()
			for n, in := range bb.Instructions() {
				switch {
				case in.Op == isa.Call:
					switch image.CalledFunctionName(in.Addr) {
					case "malloc":
						if err := be.InsertSnippet(recordSize, points[n], dyninst.CallBefore); err != nil {
							return nil, err
						}
						if err := be.InsertSnippet(recordAlloc, points[n], dyninst.CallAfter); err != nil {
							return nil, err
						}
					case "free":
						if err := be.InsertSnippet(recordFree, points[n], dyninst.CallBefore); err != nil {
							return nil, err
						}
					}
				case in.Op.IsMemAccess():
					if err := be.InsertSnippet(checkAccess, points[n], dyninst.CallBefore); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return be.Run()
}
