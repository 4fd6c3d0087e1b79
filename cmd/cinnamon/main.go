// Command cinnamon is the Cinnamon compiler driver: it compiles a .cin
// program and either runs it on a binary under one of the three backends
// or emits the framework-specific C/C++ sources.
//
//	cinnamon -backend=pin -target=victim:uaf_bug tool.cin
//	cinnamon -backend=janus -target=suite:mcf -scale=0.5 tool.cin
//	cinnamon -backend=dyninst -target=app.s tool.cin
//	cinnamon -emit=janus tool.cin
//	cinnamon -list-programs        # built-in case studies
//	cinnamon -backend=pin -target=victim:uaf_bug @useafterfree
//
// Targets: "victim:<name>" (built-in monitoring victims),
// "suite:<name>" (synthetic SPEC CPU 2017 benchmark), or a path to an
// assembly file. Tool arguments starting with @ name a built-in case
// study instead of a file.
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/cinnamon"
	"repro/internal/governor"
	"repro/internal/obj"
	"repro/internal/progs"
	"repro/internal/workload"
)

func main() {
	cli.Usage = func() { usage(os.Stderr) }
	_ = cli.Parse(os.Args[1:])

	if *loop == 0 && *listen != "" {
		// A single victim run is over in microseconds — far too fast to
		// scrape. A live-monitored session loops by default.
		*loop = 500000
	}

	if *list {
		fmt.Println("built-in case studies (use as @<name>):")
		for _, n := range progs.Names() {
			fmt.Printf("  @%s\n", n)
		}
		fmt.Println("victims (use as -target=victim:<name>):")
		var names []string
		for n := range workload.Victims() {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	if cli.NArg() != 1 {
		usage(os.Stderr)
		os.Exit(1)
	}
	src := readTool(cli.Arg(0))
	tool, err := cinnamon.Compile(src)
	check(err)

	if *emit != "" {
		files, err := tool.GenerateCode(*emit)
		check(err)
		var names []string
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("// ===== %s =====\n%s\n", n, files[n])
		}
		return
	}

	if *target == "" {
		fail("cinnamon: -target is required to run a tool (or use -emit)")
	}
	tgt := loadTarget(*target, *scale, *loop)
	report, err := tool.Run(tgt, *backendName, cinnamon.RunOptions{
		ToolOut:          os.Stdout,
		PinLoopDetection: *pinLoops,
		Stats:            *stats || *statsJSON,
		Trace:            *trace,
		MonitorAddr:      *listen,
		Interval:         *interval,
		Ablate:           *ablate,
		Budget:           *budget,
		GovernorWindow:   *govWindow,
		OnMonitor: func(addr string) {
			fmt.Fprintf(os.Stderr, "cinnamon: monitor listening on http://%s\n", addr)
		},
	})
	check(err)
	if *stats || *trace > 0 {
		fmt.Fprintf(os.Stderr, "backend=%s insts=%d cycles=%d exit=%d\n",
			report.Backend, report.Insts, report.Cycles, report.ExitCode)
		report.Stats.WriteTable(os.Stderr)
		if st, ok := report.Stats.Governor.(governor.State); ok {
			ejected := 0
			for _, p := range st.Probes {
				if !p.Enabled {
					ejected++
				}
			}
			fmt.Fprintf(os.Stderr,
				"governor: budget %.2f%%, %d paces, %d decisions (%d probes ejected), last window overhead %.2f%%\n",
				st.Budget*100, st.Paces, len(st.Decisions), ejected, st.LastOverhead*100)
		}
	}
	if *statsJSON {
		check(report.Stats.WriteJSON(os.Stdout))
	}
}

func readTool(arg string) string {
	if strings.HasPrefix(arg, "@") {
		src, err := progs.Source(strings.TrimPrefix(arg, "@"))
		check(err)
		return src
	}
	b, err := os.ReadFile(arg)
	check(err)
	return string(b)
}

func loadTarget(spec string, scale float64, loop int) *cinnamon.Target {
	switch {
	case strings.HasPrefix(spec, "victim:"):
		name := strings.TrimPrefix(spec, "victim:")
		var m *obj.Module
		var err error
		if loop > 0 {
			m, err = workload.LoopedVictim(name, loop)
		} else {
			m, err = workload.Victim(name)
		}
		check(err)
		t, err := cinnamon.LoadModules([]*obj.Module{m})
		check(err)
		return t
	case strings.HasPrefix(spec, "suite:"):
		s, ok := workload.ByName(strings.TrimPrefix(spec, "suite:"))
		if !ok {
			fail("cinnamon: unknown suite benchmark %q", spec)
		}
		mods, err := s.Build(scale)
		check(err)
		t, err := cinnamon.LoadModules(mods)
		check(err)
		return t
	default:
		b, err := os.ReadFile(spec)
		check(err)
		t, err := cinnamon.LoadAssembly(string(b))
		check(err)
		return t
	}
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
