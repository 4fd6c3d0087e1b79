package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/janus"
	"repro/internal/vm"
)

// Use-after-free monitoring written directly against the Janus API: the
// static pass finds malloc/free call sites and all memory accesses by
// symbol and opcode inspection, annotating each with a rule naming the
// right handler; the handlers read call arguments, return values and
// effective addresses from the dynamic context. The check handlers
// branch and probe maps, so their clean calls are not inlinable.
func init() { register("janus", "useafterfree", janusUseAfterFree) }

func janusUseAfterFree(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	const (
		hSize janus.HandlerID = iota + 1
		hAlloc
		hFree
		hCheck
	)
	freed := make(map[uint64]bool)
	baseTable := make(map[uint64]uint64)
	var size uint64

	tool := &janus.Tool{
		Name: "useafterfree",
		StaticPass: func(sa *janus.StaticAnalyzer) {
			nameAt := sa.Program().Obj.NameAt
			emit := func(b *cfg.Block, in *isa.Inst, tr janus.Trigger, h janus.HandlerID) {
				sa.EmitRule(janus.Rule{BlockAddr: b.Start, InstAddr: in.Addr, Trigger: tr, Handler: h})
			}
			for _, f := range sa.Executable().Funcs {
				for _, b := range f.Blocks {
					for _, in := range b.Insts {
						switch {
						case in.Op == isa.Call:
							if tgt, ok := in.IsDirectTarget(); ok {
								switch nameAt(tgt) {
								case "malloc":
									emit(b, in, janus.TriggerBefore, hSize)
									emit(b, in, janus.TriggerAfter, hAlloc)
								case "free":
									emit(b, in, janus.TriggerBefore, hFree)
								}
							}
						case in.Op.IsMemAccess():
							emit(b, in, janus.TriggerBefore, hCheck)
						}
					}
				}
			}
		},
		Handlers: map[janus.HandlerID]janus.Handler{
			hSize: {
				Fn:   func(c *vm.Ctx, _ []uint64) { size = c.CallArg(1) },
				Cost: 1 * stmtCost,
			},
			hAlloc: {
				Fn: func(c *vm.Ctx, _ []uint64) {
					base := c.RetVal()
					for a := base; a < base+size; a++ {
						baseTable[a] = base
					}
					freed[base] = false
				},
				Cost: 6 * stmtCost,
			},
			hFree: {
				Fn:   func(c *vm.Ctx, _ []uint64) { freed[c.CallArg(1)] = true },
				Cost: 2 * stmtCost,
			},
			hCheck: {
				Fn: func(c *vm.Ctx, _ []uint64) {
					ea, ok := c.MemAddr()
					if !ok {
						return
					}
					if base, hit := baseTable[ea]; hit && freed[base] {
						fmt.Fprintln(out, "ERROR: use after free access")
					}
				},
				Cost: 6 * stmtCost,
			},
		},
	}
	return janus.Run(prog, tool, vm.Config{Fuel: fuel})
}
