package placement

import (
	"repro/internal/cfg"
	"repro/internal/core/value"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Config steers the optimization passes for one instrumentation run.
type Config struct {
	// Optimize enables the rewriting passes (counter promotion and
	// probe coalescing). Deferred where groups are resolved either
	// way — a rule must never lower with its where clause undecided.
	Optimize bool
	// Adaptive disables coalescing: the governor controls probes
	// individually, and a merged probe has no per-placement stride
	// state to pace.
	Adaptive bool
	// Obs, when non-nil, receives pass-effect counts in the build
	// stats (the attribution table itself stays per-placement, so
	// residual is unaffected).
	Obs *obs.Collector
}

// Apply runs the optimization passes over the table in place:
// where-clause hoisting, counter promotion, then redundant-probe
// coalescing. Apply is idempotent — a second run is a fixpoint — and
// observability-neutral: the rewritten table lowers to bit-identical
// fires, cycles, skips and output.
func Apply(rs *RuleSet, cfg Config) error {
	if err := hoist(rs, cfg.Obs); err != nil {
		return err
	}
	if !cfg.Optimize {
		return nil
	}
	promote(rs, cfg.Obs)
	if !cfg.Adaptive {
		coalesce(rs, cfg.Obs)
	}
	return nil
}

// hoist resolves every deferred static where clause once per action
// instance: a group that evaluates false drops all its rules (the
// probe is never placed); one that evaluates true leaves them
// unconditional, with their Group cleared. A group's outcome is the
// one its clause had when the action was placed, exactly what eager
// evaluation produces.
func hoist(rs *RuleSet, o *obs.Collector) error {
	var hoisted, placed, filtered int
	kept := rs.rules[:0]
	for _, r := range rs.rules {
		g := r.Group
		if g == nil {
			kept = append(kept, r)
			continue
		}
		if !g.resolved {
			ok, err := g.Eval()
			if err != nil {
				return err
			}
			g.resolved, g.keep = true, ok
			hoisted++
			if ok {
				placed++
			} else {
				filtered++
			}
		}
		if g.keep {
			r.Group = nil
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(rs.rules); i++ {
		rs.rules[i] = nil
	}
	rs.rules = kept
	rs.byBlock = nil
	if o != nil && hoisted > 0 {
		o.MutateBuild(func(b *obs.BuildStats) {
			b.WheresHoisted += hoisted
			b.ActionsPlaced += placed
			b.StaticFiltered += filtered
		})
	}
	return nil
}

// promote sets each rule's dispatch mechanism from its action's
// recorded tier: a compiled body upgrades to MechFast, and an additive
// body with no dynamic attributes to MechCounter. This feeds the VM's
// inline tier from the IR instead of per-backend plumbing.
func promote(rs *RuleSet, o *obs.Collector) {
	promoted := 0
	for _, r := range rs.rules {
		if len(r.Merged) > 0 || r.Action == nil || r.Action.Tier == MechGeneric {
			continue
		}
		want := r.Action.Tier
		if len(r.Action.DynAttrs) > 0 {
			want = MechFast
		}
		if want != r.Mechanism {
			r.Mechanism = want
			if want == MechCounter {
				promoted++
			}
		}
	}
	if o != nil && promoted > 0 {
		o.MutateBuild(func(b *obs.BuildStats) { b.CountersPromoted += promoted })
	}
}

// siteKey identifies one concrete trigger point: rules merge only
// when they fire at exactly the same place for exactly the same
// reason.
type siteKey struct {
	trig  Trigger
	inst  *isa.Inst
	block *cfg.Block
	from  *cfg.Block
}

// coalesce merges maximal same-site runs of adjacent unsampled
// counter rules into one probe per run. Adjacency is judged within
// the site's own subsequence of the table — rules at other sites
// between two constituents are irrelevant, but a non-eligible rule at
// the same site breaks the run, because merging across it would
// reorder that site's observable execution.
//
// The merged probe attributes per-constituent through vm.Share rows,
// so the report is row-for-row identical to the unmerged table, and
// stays a counter. The pass builds only the merged rule's structure;
// MergeRun fuses its closures once the constituents are bound.
func coalesce(rs *RuleSet, o *obs.Collector) {
	open := make(map[siteKey][]int)
	var runs [][]int
	closeRun := func(k siteKey) {
		if run := open[k]; len(run) >= 2 {
			runs = append(runs, run)
		}
		delete(open, k)
	}
	for i, r := range rs.rules {
		if r.Block == nil {
			continue
		}
		k := siteKey{r.Trigger, r.Inst, r.Block, r.From}
		if coalescable(r) {
			open[k] = append(open[k], i)
		} else {
			closeRun(k)
		}
	}
	for k := range open {
		closeRun(k)
	}
	if len(runs) == 0 {
		return
	}

	merged := 0
	drop := make(map[int]bool)
	for _, run := range runs {
		parts := make([]*Rule, len(run))
		for j, idx := range run {
			parts[j] = rs.rules[idx]
			if j > 0 {
				drop[idx] = true
			}
		}
		rs.rules[run[0]] = mergedRule(parts)
		merged += len(run) - 1
	}
	kept := rs.rules[:0]
	for i, r := range rs.rules {
		if !drop[i] {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(rs.rules); i++ {
		rs.rules[i] = nil
	}
	rs.rules = kept
	rs.byBlock = nil
	if o != nil {
		o.MutateBuild(func(b *obs.BuildStats) { b.ProbesCoalesced += merged })
	}
}

// coalescable reports whether a rule may join a merged run: an
// unmerged, unsampled counter.
func coalescable(r *Rule) bool {
	return len(r.Merged) == 0 && r.Mechanism == MechCounter && r.Action.Sample <= 1
}

// mergedRule is the structure of one counter probe standing for a
// same-site run of counters: the first constituent's site and label,
// their summed cost, and the constituents in execution order.
func mergedRule(parts []*Rule) *Rule {
	first := parts[0]
	var cost uint64
	for _, p := range parts {
		cost += p.Action.Cost
	}
	return &Rule{
		Trigger: first.Trigger,
		Inst:    first.Inst,
		Block:   first.Block,
		From:    first.From,
		Action: &Action{
			Label:  first.Action.Label,
			Cost:   cost,
			Simple: first.Action.Simple,
			Tier:   MechCounter,
		},
		Mechanism: MechCounter,
		Merged:    parts,
	}
}

// MergeRun fuses a same-site run of bound counters into one counter
// rule whose execution is the constituents' executions in order; its
// Flush(n) runs each constituent's Flush(n) in order, so n firings of
// the run still equal one flush. The engine's Template.Instantiate calls
// it for every merged rule of a recorded table once the constituents
// are bound to the session's cells.
func MergeRun(parts []*Rule) *Rule {
	r := mergedRule(parts)
	execs := make([]func([]value.Value), len(parts))
	flushes := make([]func(int64), len(parts))
	for i, p := range parts {
		execs[i] = p.Action.Exec
		flushes[i] = p.Action.Flush
	}
	r.Action.Exec = func([]value.Value) {
		for _, exec := range execs {
			exec(nil)
		}
	}
	r.Action.Flush = func(n int64) {
		for _, flush := range flushes {
			flush(n)
		}
	}
	return r
}
