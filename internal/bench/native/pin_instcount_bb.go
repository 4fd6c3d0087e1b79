package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Low-overhead instruction counting written directly against the Pin API
// (the native equivalent of Figure 5b, the Figure 13 baseline): at trace
// instrumentation time, count the loads in each basic block; insert one
// inlinable analysis call per block that adds the precomputed count.
func init() { register("pin", "instcount_bb", pinInstCountBB) }

func pinInstCountBB(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	p := pin.New(prog, vm.Config{Fuel: fuel})
	var instCount uint64
	p.TraceAddInstrumentFunction(func(tr pin.TRACE) {
		for _, bbl := range tr.BBLs() {
			local := uint64(0)
			for _, ins := range bbl.Ins() {
				if ins.IsMemoryRead() {
					local++
				}
			}
			if local == 0 {
				continue
			}
			localCount := local
			add := pin.Routine{
				Fn:        func([]uint64) { instCount += localCount },
				Cost:      1 * stmtCost,
				Inlinable: true, // single add of a constant: inlined
			}
			if err := bbl.InsertCall(add); err != nil {
				panic(err)
			}
		}
	})
	p.AddFiniFunction(func() {
		fmt.Fprintf(out, "%d\n", instCount)
	})
	return p.Run()
}
