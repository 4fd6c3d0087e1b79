// Command conformance runs the differential conformance sweep: seeded
// generated Cinnamon programs and victims cross-checked over all three
// backends and every speed-layer ablation, with the paper's legal
// divergences (Pin sees shared libraries, Dyninst CFG-skip, Pin has no
// loops) classified by the structured oracle rather than masked.
//
// Usage:
//
//	conformance -seeds 200 [-start 0] [-budget 30s] [-save dir] [-v]
//
// On an illegal divergence it shrinks the tool program to a minimal
// reproducer, prints the .cin source and the seed, optionally persists
// the pair into the regression corpus, and exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/conformance"
)

func main() {
	var (
		seeds  = flag.Uint64("seeds", 100, "number of seeds to sweep")
		start  = flag.Uint64("start", 0, "first seed")
		budget = flag.Duration("budget", 30*time.Second, "wall-clock budget (0 = unlimited)")
		save   = flag.String("save", "", "directory to persist shrunk failures as .cinpair corpus entries")
		v      = flag.Bool("v", false, "print every legal divergence as it is classified")
	)
	flag.Parse()

	var deadline time.Time
	if *budget > 0 {
		deadline = time.Now().Add(*budget)
	}

	res := conformance.Sweep(*start, *seeds, deadline)

	if *v {
		for seed := *start; seed < *start+uint64(res.Seeds); seed++ {
			pr, err := conformance.CheckSeed(seed)
			if err != nil {
				continue
			}
			for _, d := range pr.Divergences {
				if d.Legal {
					fmt.Printf("seed %d: %s\n", seed, d)
				}
			}
		}
	}

	fail := false
	for _, err := range res.Errors {
		fail = true
		fmt.Fprintf(os.Stderr, "generator error: %v\n", err)
	}
	for _, pr := range res.Failures {
		fail = true
		shrunk := conformance.ShrinkFailure(pr)
		fmt.Fprint(os.Stderr, conformance.DescribeFailure(pr, shrunk))
		if *save != "" {
			name := filepath.Join(*save, fmt.Sprintf("seed_%d.cinpair", pr.Program.Seed))
			entry := conformance.FormatPair(shrunk, pr.Victim.Srcs)
			if err := os.WriteFile(name, []byte(entry), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "save %s: %v\n", name, err)
			} else {
				fmt.Fprintf(os.Stderr, "saved %s\n", name)
			}
		}
	}
	if res.TimedOut {
		fmt.Fprintln(os.Stderr, "warning: budget expired before the sweep finished")
	}
	fmt.Print(res.Summary())
	if fail {
		os.Exit(1)
	}
}
