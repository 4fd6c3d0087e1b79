package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Forward-edge CFI written directly against the Pin API (the native
// equivalent of Figure 9). Pin's routine mode provides the valid function
// entries ahead of time; the check is a set-membership test against a
// pre-built table, short and branch-light enough for Pin to inline —
// the hand-tuned trick the generated tool's generic vtable lookup cannot
// match, which is why the paper measures forward CFI among the costlier
// Cinnamon/Pin gaps.
func init() { register("pin", "forwardcfi", pinForwardCFI) }

func pinForwardCFI(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	p := pin.New(prog, vm.Config{Fuel: fuel})
	valid := make(map[uint64]bool)
	p.RTNAddInstrumentFunction(func(r pin.RTN) {
		valid[r.Address()] = true
	})
	check := pin.Routine{
		Fn: func(args []uint64) {
			if !valid[args[0]] {
				fmt.Fprintln(out, "ERROR")
			}
		},
		Cost:      2 * stmtCost,
		Inlinable: true, // single hash probe + conditional report
	}
	p.INSAddInstrumentFunction(func(ins pin.INS) {
		if ins.IsCall() {
			must(ins.InsertCall(pin.IPointBefore, check, pin.BranchTarget()))
		}
	})
	return p.Run()
}
