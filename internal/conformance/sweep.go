package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// CheckSeed generates the (program, victim) pair for one seed and runs
// it through the differential matrix. Program and victim are derived
// from the same seed through decorrelated streams, so one integer
// reproduces the whole pair.
func CheckSeed(seed uint64) (*PairResult, error) {
	return RunPair(GenProgram(seed), GenVictim(seed))
}

// SweepResult summarizes a seed sweep.
type SweepResult struct {
	// Seeds is how many seeds actually ran (the budget may cut the
	// sweep short).
	Seeds int
	// Cells is how many ungoverned backend x ablation runs executed,
	// and GovernedCells how many governed ones.
	Cells, GovernedCells int
	// Decisions counts the governor decisions the governed cells took.
	Decisions int
	// Legal counts legal divergences by oracle class.
	Legal map[string]int
	// SamplingChecks counts sampled placements verified against their
	// unsampled twins across the sweep.
	SamplingChecks int
	// CountersPromoted counts the placements that ran as promoted
	// counters, summed over every ungoverned cell of the sweep.
	CountersPromoted int
	// Failures lists every pair with an illegal divergence.
	Failures []*PairResult
	// Errors lists pairs that could not be set up at all (generator
	// bugs: the tool did not compile or the victim did not assemble).
	Errors []error
	// TimedOut reports whether the budget expired before all seeds ran.
	TimedOut bool
}

// Summary renders a stable one-line-per-class digest.
func (s *SweepResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d seeds, %d cells, %d sampled placements, %d counter-promoted placements, %d illegal, %d errors\n",
		s.Seeds, s.Cells, s.SamplingChecks, s.CountersPromoted, len(s.Failures), len(s.Errors))
	fmt.Fprintf(&b, "  governed %d cells, %d decisions\n", s.GovernedCells, s.Decisions)
	classes := make([]string, 0, len(s.Legal))
	for c := range s.Legal {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  legal %-16s %d\n", c, s.Legal[c])
	}
	return b.String()
}

// Sweep runs seeds [start, start+n) through the differential matrix,
// stopping early when the deadline passes (zero deadline = no budget).
func Sweep(start, n uint64, deadline time.Time) *SweepResult {
	res := &SweepResult{Legal: map[string]int{}}
	for seed := start; seed < start+n; seed++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.TimedOut = true
			break
		}
		pr, err := CheckSeed(seed)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Errorf("seed %d: %w", seed, err))
			res.Seeds++
			continue
		}
		res.Seeds++
		res.SamplingChecks += pr.SamplingChecks
		for _, r := range pr.Results {
			if r.Cell.Governed {
				res.GovernedCells++
				res.Decisions += len(r.Decisions)
			} else {
				res.Cells++
				res.CountersPromoted += r.CountersPromoted
			}
		}
		for _, d := range pr.Divergences {
			if d.Legal {
				res.Legal[d.Class]++
			}
		}
		if len(pr.Illegal()) > 0 {
			res.Failures = append(res.Failures, pr)
		}
	}
	return res
}

// ShrinkFailure minimizes the failing pair's tool program while keeping
// the same victim and at least one illegal divergence, returning the
// minimal source. The predicate is deterministic, so the same failure
// always shrinks to the same minimal program.
func ShrinkFailure(pr *PairResult) string {
	return Shrink(pr.Program.Source, func(src string) bool {
		rr, err := RunPair(&Program{Source: src}, pr.Victim)
		if err != nil {
			return false
		}
		return len(rr.Illegal()) > 0
	})
}

// DescribeFailure renders a reproduction report for an illegal
// divergence: the seed, the oracle verdicts, and the (shrunk) sources.
func DescribeFailure(pr *PairResult, shrunk string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CONFORMANCE FAILURE (seed %d)\n", pr.Program.Seed)
	fmt.Fprintf(&b, "traits: multi-module=%v unrecoverable=%v loops=%v\n",
		pr.Traits.MultiModule, pr.Traits.Unrecoverable, pr.Traits.UsesLoops)
	for _, d := range pr.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	b.WriteString("--- minimal tool program ---\n")
	b.WriteString(strings.TrimRight(shrunk, "\n") + "\n")
	for i, src := range pr.Victim.Srcs {
		fmt.Fprintf(&b, "--- victim module %d ---\n", i)
		b.WriteString(strings.TrimRight(src, "\n") + "\n")
	}
	fmt.Fprintf(&b, "replay: go run ./cmd/conformance -start %d -seeds 1\n", pr.Program.Seed)
	return b.String()
}
