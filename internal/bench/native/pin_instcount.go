package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Instruction counting written directly against the Pin API (the native
// equivalent of Figure 5a): insert an inlinable analysis call before
// every load.
func init() { register("pin", "instcount", pinInstCount) }

func pinInstCount(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	p := pin.New(prog, vm.Config{Fuel: fuel})
	var instCount uint64
	countLoad := pin.Routine{
		Fn:        func([]uint64) { instCount++ },
		Cost:      1 * stmtCost,
		Inlinable: true, // single increment: Pin inlines it
	}
	p.INSAddInstrumentFunction(func(ins pin.INS) {
		if ins.IsMemoryRead() {
			if err := ins.InsertCall(pin.IPointBefore, countLoad); err != nil {
				panic(err)
			}
		}
	})
	p.AddFiniFunction(func() {
		fmt.Fprintf(out, "%d\n", instCount)
	})
	return p.Run()
}
