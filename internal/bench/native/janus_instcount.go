package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Instruction counting written directly against the Janus API: the static
// pass annotates every load in the executable with a rewrite rule; the
// dynamic handler increments a counter. The handler is a single add, so
// the dynamic translator inlines its clean call.
func init() { register("janus", "instcount", janusInstCount) }

func janusInstCount(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const hCount janus.HandlerID = 1
	var instCount uint64
	tool := &janus.Tool{
		Name: "instcount",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						if in.Op == isa.Load {
							sa.EmitRule(janus.Rule{
								BlockAddr: b.Start,
								InstAddr:  in.Addr,
								Trigger:   janus.TriggerBefore,
								Handler:   hCount,
							})
						}
					}
				}
			}
			sa.EmitRule(janus.Rule{Trigger: janus.TriggerFini, Handler: hCount + 1})
		},
		Handlers: map[janus.HandlerID]janus.Handler{
			hCount: {
				Fn:        func(*vm.Ctx, []uint64) { instCount++ },
				Cost:      1 * stmtCost,
				Inlinable: true,
			},
			hCount + 1: {
				Fn: func(*vm.Ctx, []uint64) { fmt.Fprintf(out, "%d\n", instCount) },
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
