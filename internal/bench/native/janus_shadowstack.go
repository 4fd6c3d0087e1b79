package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Shadow-stack backward-edge CFI written directly against the Janus API:
// rules annotate every call and return in the executable; the push
// handler records the fall-through address, the check handler compares
// the return target against the shadow top.
func init() { register("janus", "shadowstack", janusShadowStack) }

func janusShadowStack(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const (
		hPush janus.HandlerID = iota + 1
		hCheck
	)
	var shadow []uint64
	tool := &janus.Tool{
		Name: "shadowstack",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						switch in.Op {
						case isa.Call:
							sa.EmitRule(janus.Rule{
								BlockAddr: b.Start, InstAddr: in.Addr,
								Trigger: janus.TriggerBefore, Handler: hPush,
								Data: []uint64{in.Next()}, // static fall-through
							})
						case isa.Return:
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
			hPush: {
				Fn:   func(_ *vm.Ctx, data []uint64) { shadow = append(shadow, data[0]) },
				Cost: 3 * stmtCost,
			},
			hCheck: {
				Fn: func(c *vm.Ctx, _ []uint64) {
					tgt, _ := c.Target()
					if len(shadow) > 0 && shadow[len(shadow)-1] == tgt {
						shadow = shadow[:len(shadow)-1]
					} else {
						fmt.Fprintln(out, "ERROR")
					}
				},
				Cost: 3 * stmtCost,
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
