package native

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/pin"
	"repro/internal/vm"
)

// Use-after-free monitoring written directly against the Pin API (the
// native equivalent of Figure 7): track malloc'd ranges, mark them freed,
// and check every load/store effective address. The analysis routines
// contain branches and map lookups, so Pin cannot inline them: they run
// as clean calls, just like the generated tool's callbacks.
func init() { register("pin", "useafterfree", pinUseAfterFree) }

func pinUseAfterFree(prog *cfg.Program, out io.Writer, fuel uint64) (*vm.Result, error) {
	p := pin.New(prog, vm.Config{Fuel: fuel})
	freed := make(map[uint64]bool)
	baseTable := make(map[uint64]uint64)
	var size uint64

	recordSize := pin.Routine{
		Fn:   func(args []uint64) { size = args[0] },
		Cost: 1 * stmtCost,
	}
	recordAlloc := pin.Routine{
		Fn: func(args []uint64) {
			base := args[0]
			for a := base; a < base+size; a++ {
				baseTable[a] = base
			}
			freed[base] = false
		},
		Cost: 6 * stmtCost,
	}
	recordFree := pin.Routine{
		Fn:   func(args []uint64) { freed[args[0]] = true },
		Cost: 2 * stmtCost,
	}
	checkAccess := pin.Routine{
		Fn: func(args []uint64) {
			if base, ok := baseTable[args[0]]; ok {
				if freed[base] {
					fmt.Fprintln(out, "ERROR: use after free access")
				}
			}
		},
		Cost: 6 * stmtCost,
	}

	p.INSAddInstrumentFunction(func(ins pin.INS) {
		switch {
		case ins.IsCall() && ins.DirectTargetName() == "malloc":
			must(ins.InsertCall(pin.IPointBefore, recordSize, pin.FuncArg(1)))
			must(ins.InsertCall(pin.IPointAfter, recordAlloc, pin.RetVal()))
		case ins.IsCall() && ins.DirectTargetName() == "free":
			must(ins.InsertCall(pin.IPointBefore, recordFree, pin.FuncArg(1)))
		case ins.IsMemoryRead() || ins.IsMemoryWrite():
			must(ins.InsertCall(pin.IPointBefore, checkAccess, pin.MemoryEA()))
		}
	})
	return p.Run()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
