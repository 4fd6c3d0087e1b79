// Command experiments regenerates the paper's evaluation tables and
// figures from the command line:
//
//	experiments -exp=table1             # Table I: code lengths
//	experiments -exp=fig12 -scale=1.0   # Figure 12: counts per backend
//	experiments -exp=fig13              # Figure 13: overhead vs native
//	experiments -exp=pintools           # Section VI-D: Pin tool overheads
//	experiments -exp=attribution        # overhead decomposition per backend
//	experiments -exp=attribution -json  # ... also write BENCH_attribution.json
//	experiments -exp=dispatch           # VM tier wall-clock comparison
//	experiments -exp=dispatch -json     # ... also write BENCH_dispatch.json
//	experiments -exp=governor           # overhead budgets on action-heavy tools
//	experiments -exp=governor -json     # ... also write BENCH_governor.json
//	experiments -exp=fleet              # fleet daemon load harness
//	experiments -exp=fleet -json        # ... also write BENCH_fleet.json
//	experiments -exp=all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig12, fig13, pintools, attribution, dispatch, governor, fleet, all")
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = paper-equivalent test input)")
	benchmark := flag.String("benchmark", "leela", "benchmark for -exp=attribution, -exp=dispatch and -exp=governor")
	jsonOut := flag.Bool("json", false, "also write machine-readable results (BENCH_attribution.json, BENCH_dispatch.json, BENCH_governor.json, BENCH_fleet.json) next to the table output")
	sessions := flag.Int("sessions", 48, "session count for -exp=fleet")
	workers := flag.Int("workers", 32, "worker pool size for -exp=fleet")
	loop := flag.Int("loop", 20000, "victim loop count per session for -exp=fleet")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		bench.FormatTable1(os.Stdout, bench.Table1())
		return nil
	})
	run("fig12", func() error {
		rows, err := bench.Fig12(*scale)
		if err != nil {
			return err
		}
		bench.FormatFig12(os.Stdout, rows)
		fmt.Printf("shared-library gap (Pin > static): %v\n", bench.SharedLibGap(rows))
		return nil
	})
	run("fig13", func() error {
		rows, err := bench.Fig13(*scale)
		if err != nil {
			return err
		}
		bench.FormatFig13(os.Stdout, rows)
		return nil
	})
	run("pintools", func() error {
		rows, err := bench.PinToolOverheads(*scale)
		if err != nil {
			return err
		}
		bench.FormatPinTools(os.Stdout, rows)
		return nil
	})
	run("attribution", func() error {
		rows, err := bench.Attribution(*benchmark, *scale)
		if err != nil {
			return err
		}
		bench.FormatAttribution(os.Stdout, rows)
		if *jsonOut {
			f, err := os.Create("BENCH_attribution.json")
			if err != nil {
				return err
			}
			defer f.Close()
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_attribution.json")
		}
		return nil
	})
	run("dispatch", func() error {
		rows, err := bench.Dispatch(*benchmark, *scale)
		if err != nil {
			return err
		}
		bench.FormatDispatch(os.Stdout, rows)
		if *jsonOut {
			f, err := os.Create("BENCH_dispatch.json")
			if err != nil {
				return err
			}
			defer f.Close()
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_dispatch.json")
		}
		return nil
	})
	run("governor", func() error {
		rows, err := bench.Governor(*benchmark, *scale)
		if err != nil {
			return err
		}
		bench.FormatGovernor(os.Stdout, rows)
		if *jsonOut {
			f, err := os.Create("BENCH_governor.json")
			if err != nil {
				return err
			}
			defer f.Close()
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_governor.json")
		}
		return nil
	})
	run("fleet", func() error {
		res, err := bench.Fleet(bench.FleetOptions{Sessions: *sessions, Workers: *workers, Loop: *loop})
		if err != nil {
			return err
		}
		bench.FormatFleet(os.Stdout, res)
		if *jsonOut {
			f, err := os.Create("BENCH_fleet.json")
			if err != nil {
				return err
			}
			defer f.Close()
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_fleet.json")
		}
		return nil
	})
}
