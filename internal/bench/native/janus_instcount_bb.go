package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Low-overhead instruction counting written directly against the Janus
// API (the Figure 13 baseline): the static pass counts the loads per
// basic block and records the count in the rule payload; the dynamic
// handler adds the payload word to the global counter — one inlined
// clean call per block execution.
func init() { register("janus", "instcount_bb", janusInstCountBB) }

func janusInstCountBB(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const (
		hAdd janus.HandlerID = iota + 1
		hFini
	)
	var instCount uint64
	tool := &janus.Tool{
		Name: "instcount_bb",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					local := uint64(0)
					for _, in := range b.Insts {
						if in.Op == isa.Load {
							local++
						}
					}
					if local > 0 {
						sa.EmitRule(janus.Rule{
							BlockAddr: b.Start,
							Trigger:   janus.TriggerBlockEntry,
							Handler:   hAdd,
							Data:      []uint64{local},
						})
					}
				}
			}
			sa.EmitRule(janus.Rule{Trigger: janus.TriggerFini, Handler: hFini})
		},
		Handlers: map[janus.HandlerID]janus.Handler{
			hAdd: {
				Fn:        func(_ *vm.Ctx, data []uint64) { instCount += data[0] },
				Cost:      1 * stmtCost,
				Inlinable: true,
			},
			hFini: {
				Fn: func(*vm.Ctx, []uint64) { fmt.Fprintf(out, "%d\n", instCount) },
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
