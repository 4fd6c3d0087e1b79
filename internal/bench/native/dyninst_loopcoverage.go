package native

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cfg"
	"repro/internal/dyninst"
	"repro/internal/vm"
)

// Loop-coverage profiling written directly against the Dyninst API (the
// native equivalent of Figure 6): snippets at every loop's entry, exit
// and back-edge points maintain the live-loop set; a snippet at every
// basic-block entry counts executed blocks globally and per live loop.
func init() { register("dyninst", "loopcoverage", dyninstLoopCoverage) }

func dyninstLoopCoverage(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	be, err := dyninst.OpenBinary(prog, vm.Config{Fuel: fuel})
	if err != nil {
		return nil, err
	}
	image := be.Image()
	live := make(map[int]bool)
	blocks := make(map[int]uint64)
	seen := make(map[int]bool)
	var order []int
	var totalBlocks uint64

	for _, fn := range image.Functions() {
		for _, loop := range fn.Loops() {
			id := loop.ID()
			enter := dyninst.FuncCallExpr{
				Fn: func([]uint64) {
					if !seen[id] {
						seen[id] = true
						order = append(order, id)
					}
					live[id] = true
				},
				Cost: 4 * stmtCost,
			}
			leave := dyninst.FuncCallExpr{
				Fn:   func([]uint64) { live[id] = false },
				Cost: 1 * stmtCost,
			}
			for _, pt := range loop.EntryPoints() {
				if err := be.InsertSnippet(enter, pt, dyninst.CallBefore); err != nil {
					return nil, err
				}
			}
			for _, pt := range loop.ExitPoints() {
				if err := be.InsertSnippet(leave, pt, dyninst.CallBefore); err != nil {
					return nil, err
				}
			}
		}
		countBlock := dyninst.FuncCallExpr{
			Fn: func([]uint64) {
				totalBlocks++
				for id, on := range live {
					if on {
						blocks[id]++
					}
				}
			},
			Cost: 7 * stmtCost,
		}
		for _, bb := range fn.Blocks() {
			if err := be.InsertSnippet(countBlock, bb.EntryPoint(), dyninst.CallBefore); err != nil {
				return nil, err
			}
		}
	}
	be.OnFini(func() {
		ids := append([]int(nil), order...)
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(out, "%d\n%d\n", id, blocks[id]*100/totalBlocks)
		}
	})
	return be.Run()
}
