package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Shadow-stack backward-edge CFI written directly against the Pin API
// (the native equivalent of Figure 8): push every call's fall-through
// address; before every return, the popped target must match.
func init() { register("pin", "shadowstack", pinShadowStack) }

func pinShadowStack(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	p := pin.New(prog, vm.Config{Fuel: fuel})
	var shadow []uint64

	push := pin.Routine{
		Fn:   func(args []uint64) { shadow = append(shadow, args[0]) },
		Cost: 3 * stmtCost,
	}
	check := pin.Routine{
		Fn: func(args []uint64) {
			if len(shadow) > 0 && shadow[len(shadow)-1] == args[0] {
				shadow = shadow[:len(shadow)-1]
			} else {
				fmt.Fprintln(out, "ERROR")
			}
		},
		Cost: 3 * stmtCost,
	}

	p.INSAddInstrumentFunction(func(ins pin.INS) {
		switch {
		case ins.IsCall():
			must(ins.InsertCall(pin.IPointBefore, push, pin.Fallthrough()))
		case ins.IsRet():
			must(ins.InsertCall(pin.IPointBefore, check, pin.BranchTarget()))
		}
	})
	return p.Run()
}
