package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Forward-edge CFI written directly against the Janus API: the static
// pass collects every function entry in the executable into the valid-
// target set and annotates every call; the handler checks the resolved
// target against the set.
func init() { register("janus", "forwardcfi", janusForwardCFI) }

func janusForwardCFI(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const hCheck janus.HandlerID = 1
	valid := make(map[uint64]bool)
	tool := &janus.Tool{
		Name: "forwardcfi",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				valid[f.Entry] = true
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						if in.Op == isa.Call {
							sa.EmitRule(janus.Rule{
								BlockAddr: b.Start, InstAddr: in.Addr,
								Trigger: janus.TriggerBefore, Handler: hCheck,
							})
						}
					}
				}
			}
		},
		Handlers: map[janus.HandlerID]janus.Handler{
			hCheck: {
				Fn: func(c *vm.Ctx, _ []uint64) {
					tgt, _ := c.Target()
					if !valid[tgt] {
						fmt.Fprintln(out, "ERROR")
					}
				},
				Cost: 2 * stmtCost,
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
