package native

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cfg"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Loop-coverage profiling written directly against the Janus API (the
// native equivalent of Figure 6): the static pass annotates every loop's
// entry, exit and back edges plus every basic block; the handlers
// maintain the live-loop set and per-loop block counters, and the fini
// handler reports coverage percentages.
func init() { register("janus", "loopcoverage", janusLoopCoverage) }

func janusLoopCoverage(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const (
		hEnter janus.HandlerID = iota + 1
		hLeave
		hBlock
		hFini
	)
	live := make(map[uint64]bool)
	blocks := make(map[uint64]uint64)
	var order []uint64
	seen := make(map[uint64]bool)
	var totalBlocks uint64

	tool := &janus.Tool{
		Name: "loopcoverage",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			emitEdges := func(edges []cfg.Edge, h janus.HandlerID, id uint64) {
				for _, e := range edges {
					sa.EmitRule(janus.Rule{
						BlockAddr: e.To.Start, Aux: e.From.Start,
						Trigger: janus.TriggerEdge, Handler: h, Data: []uint64{id},
					})
				}
			}
			for _, f := range sa.Executable().Funcs {
				for _, l := range f.Loops {
					emitEdges(l.Entries, hEnter, uint64(l.ID))
					emitEdges(l.Exits, hLeave, uint64(l.ID))
				}
				for _, b := range f.Blocks {
					sa.EmitRule(janus.Rule{
						BlockAddr: b.Start, Trigger: janus.TriggerBlockEntry, Handler: hBlock,
					})
				}
			}
			sa.EmitRule(janus.Rule{Trigger: janus.TriggerFini, Handler: hFini})
		},
		Handlers: map[janus.HandlerID]janus.Handler{
			hEnter: {
				Fn: func(_ *vm.Ctx, data []uint64) {
					id := data[0]
					if !seen[id] {
						seen[id] = true
						order = append(order, id)
					}
					live[id] = true
				},
				Cost: 4 * stmtCost,
			},
			hLeave: {
				Fn:   func(_ *vm.Ctx, data []uint64) { live[data[0]] = false },
				Cost: 1 * stmtCost,
			},
			hBlock: {
				Fn: func(*vm.Ctx, []uint64) {
					totalBlocks++
					for id, on := range live {
						if on {
							blocks[id]++
						}
					}
				},
				Cost: 7 * stmtCost,
			},
			hFini: {
				Fn: func(*vm.Ctx, []uint64) {
					ids := append([]uint64(nil), order...)
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for _, id := range ids {
						fmt.Fprintf(out, "%d\n%d\n", id, blocks[id]*100/totalBlocks)
					}
				},
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
