// Package placement defines the backend-neutral probe-placement rule IR.
//
// engine.Instrument compiles a Cinnamon tool into a RuleSet — one Rule
// per concrete (trigger point, action instance) placement — and every
// backend lowers that same table onto its substrate through the
// engine.Placer Lower method. The IR is where cross-backend
// optimization lives: the passes in this package (where-clause
// hoisting, counter promotion, redundant-probe coalescing; see Apply)
// are written once and run identically for janus, dyninst and pin,
// with their effects measured per-backend through the existing
// attribution table.
//
// The IR is observability-neutral by construction: a pass may only
// rewrite the table into a form whose execution is bit-identical in
// every observable (fires, cycles, skips, output, per-row attribution)
// to the unoptimized table; wins land in host wall-clock only. Merged
// probes keep per-constituent attribution via vm.Share rows, and
// deferred where clauses evaluate against by-value CFE snapshots so
// later analysis-time mutation cannot change the outcome.
package placement

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/sem"
	"repro/internal/core/value"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Trigger says when a rule's probe fires relative to its site.
type Trigger uint8

const (
	// Before fires ahead of one instruction (Rule.Inst).
	Before Trigger = iota
	// After fires behind one instruction, on the fallthrough edge.
	After
	// BlockEntry fires when control enters a basic block.
	BlockEntry
	// Edge fires when control crosses one CFG edge (Rule.From →
	// Rule.Block).
	Edge
)

func (t Trigger) String() string {
	switch t {
	case Before:
		return "before"
	case After:
		return "after"
	case BlockEntry:
		return "block-entry"
	case Edge:
		return "edge"
	}
	return fmt.Sprintf("trigger(%d)", uint8(t))
}

// Mechanism is the dispatch tier a rule has been promoted to. The
// zero value is the fully generic clean-call path; the passes upgrade
// rules whose actions are compiled, and so pure with respect to the
// machine. Backends must treat the mechanism as a ceiling, not a
// demand: lowering a Counter rule through the generic path is always
// observably correct.
type Mechanism uint8

const (
	// MechGeneric dispatches the action's executor from a clean call.
	MechGeneric Mechanism = iota
	// MechFast dispatches the compiled executor from a pure probe,
	// which the VM may fuse into translated blocks.
	MechFast
	// MechCounter is an additive body: n firings are equivalent, in
	// every observable, to Flush(n), so the VM may count firings and
	// flush at observation points.
	MechCounter
)

func (m Mechanism) String() string {
	switch m {
	case MechGeneric:
		return "generic"
	case MechFast:
		return "fast"
	case MechCounter:
		return "counter"
	}
	return fmt.Sprintf("mechanism(%d)", uint8(m))
}

// Action is a compiled action instance ready for placement: an
// executable closure over the captured analysis data, plus the
// metadata a backend needs to price and marshal it. Cost is the body
// cost only — backends add their own call-glue constant when pricing
// a dispatch, so one Action lowers onto every substrate.
type Action struct {
	// Label identifies the action in observability reports: canonical
	// trigger, target CFE type and source position, e.g. "before inst
	// @7:3". Stable across backends so attribution tables line up.
	Label string
	// Cost is the modeled body cost in cycles (no dispatch glue).
	Cost uint64
	// Simple marks bodies cheap enough for inlined dispatch on
	// frameworks that price the two tiers differently (janus).
	Simple bool
	// Sample is the language-level sampling stride (0 or 1 = every
	// firing).
	Sample uint64
	// DynAttrs are the dynamic attributes the body reads, one
	// argument slot each, in order.
	DynAttrs []sem.DynAttr
	// NumCaptured is the number of scalar analysis values captured
	// into the closure (the data a real backend would pass as
	// callback arguments).
	NumCaptured int
	// Exec runs the action body with the materialized dynamic
	// attribute values, one slot per DynAttrs entry in that order
	// (nil when the action reads no dynamic attributes).
	Exec func(dyn []value.Value)
	// Raw, when non-nil, is a pre-bound machine-context executor and
	// takes precedence over Exec (janus native tools dispatch through
	// it; Cinnamon actions leave it nil).
	Raw vm.ProbeFn
	// Flush, when non-nil, marks an additive body: n firings are
	// equivalent, in every observable, to Flush(n). Such bodies read no
	// dynamic attributes and cannot fail.
	Flush func(n int64)
	// Tier is the fastest mechanism the action's body supports at this
	// placement, recorded when the action is placed so the promotion
	// pass needs no bound closures: MechFast for every compiled body,
	// MechCounter when it is additive. A bound action's Flush provides
	// the counter surface its Tier promises.
	Tier Mechanism
}

// CtxExec adapts the action to a machine-context probe function: Raw
// when set, otherwise Exec with dynamic attributes materialized through
// ResolveDynAttr into a per-placement buffer reused across firings.
func (a *Action) CtxExec() vm.ProbeFn {
	if a.Raw != nil {
		return a.Raw
	}
	exec := a.Exec
	if len(a.DynAttrs) == 0 {
		return func(c *vm.Ctx) { exec(nil) }
	}
	attrs := a.DynAttrs
	buf := make([]value.Value, len(attrs))
	return func(c *vm.Ctx) {
		for i, da := range attrs {
			buf[i] = value.UintVal(ResolveDynAttr(c, da.Attr))
		}
		exec(buf)
	}
}

// ResolveDynAttr materializes a dynamic attribute value from the
// machine context: the framework-independent accessor behind
// Cinnamon's uniform dot-operator interface.
func ResolveDynAttr(c *vm.Ctx, attr string) uint64 {
	switch attr {
	case "memaddr", "srcaddr", "dstaddr":
		v, _ := c.MemAddr()
		return v
	case "rtnval":
		return c.RetVal()
	case "trgaddr":
		v, _ := c.Target()
		return v
	}
	if strings.HasPrefix(attr, "arg") {
		if n, err := strconv.Atoi(attr[3:]); err == nil && n >= 1 && n <= isa.MaxArgRegs {
			return c.CallArg(n)
		}
	}
	return 0
}

// WhereGroup is one action instance's deferred static where clause,
// shared by every rule that instance emitted. The clause reads only the
// CFE instances it names, so its outcome is fixed when the action is
// placed: the engine evaluates it there and Eval returns that outcome,
// which makes hoisting observably identical to eager evaluation. The
// hoisting pass detaches each group from its rules once evaluated, so
// no applied table keeps the walk's state alive through Eval.
type WhereGroup struct {
	// Eval runs the predicate once; the hoisting pass caches the
	// outcome for the whole group.
	Eval func() (bool, error)

	resolved bool
	keep     bool
}

// Rule is one concrete probe placement: a trigger point in the victim
// CFG plus the action instance to run there. A merged rule (from the
// coalescing pass) carries its constituents in Merged and has a nil
// Group; its Action describes the fused execution while observability
// attribution stays per-constituent.
type Rule struct {
	Trigger Trigger
	// Inst is the site instruction (Before/After); nil for
	// BlockEntry and Edge rules.
	Inst *isa.Inst
	// Block is the site block: the containing block for Before/After,
	// the entered block for BlockEntry, the destination for Edge.
	Block *cfg.Block
	// From is the source block of an Edge rule (nil otherwise).
	From *cfg.Block
	// Action is the compiled action instance to dispatch.
	Action *Action
	// Mechanism is the dispatch tier (set by the promotion pass;
	// MechGeneric when the passes have not run).
	Mechanism Mechanism
	// Where is the deferred static where expression (printer only;
	// nil when the clause was evaluated eagerly or absent).
	Where ast.Expr
	// Group resolves the deferred where clause for this rule's action
	// instance (nil when none, and after the hoisting pass).
	Group *WhereGroup
	// Merged holds the constituent rules of a coalesced probe, in
	// execution order. Non-nil only on rules produced by the
	// coalescing pass.
	Merged []*Rule
}

// Inline returns the inline surface every backend installs the rule's
// probe with (vm.Probe.Pure and Flush): a compiled action is pure with
// respect to the machine, and a promoted counter also flushes n firings
// at once. A generic rule has neither.
func (r *Rule) Inline() (pure bool, flush func(n int64)) {
	switch r.Mechanism {
	case MechCounter:
		return true, r.Action.Flush
	case MechFast:
		return true, nil
	}
	return false, nil
}

// InstAddr returns the rule's instruction address, or 0 for rules not
// anchored to an instruction (BlockEntry, Edge). Used to order rules
// within a block: entry rules sort first, instruction rules follow in
// address order.
func (r *Rule) InstAddr() uint64 {
	if r.Inst != nil {
		return r.Inst.Addr
	}
	return 0
}

// SiteAddr returns the address a backend installs the rule at.
func (r *Rule) SiteAddr() uint64 {
	if r.Inst != nil {
		return r.Inst.Addr
	}
	if r.Block != nil {
		return r.Block.Start
	}
	return 0
}

// RuleSet is the placement table for one instrumentation run: rules
// in emission order plus program start/end code.
type RuleSet struct {
	rules []*Rule
	// Inits and Finis run at program start/end, in order.
	Inits []func()
	Finis []func()

	byBlock map[*cfg.Block][]*Rule
}

// Add appends a rule in emission order.
func (rs *RuleSet) Add(r *Rule) {
	rs.rules = append(rs.rules, r)
	rs.byBlock = nil
}

// Rules returns the table in emission order. Backends must lower in
// this order (or in ByBlock order, which preserves it site-locally)
// so probe installation — and with it attribution-row order and
// same-site execution order — matches across optimization settings.
func (rs *RuleSet) Rules() []*Rule { return rs.rules }

// NumPlacements counts concrete placements: merged rules count each
// constituent, so the total is invariant under coalescing.
func (rs *RuleSet) NumPlacements() int {
	n := 0
	for _, r := range rs.rules {
		if len(r.Merged) > 0 {
			n += len(r.Merged)
		} else {
			n++
		}
	}
	return n
}

// ByBlock returns the rules sited in b, ordered by instruction
// address (block-entry rules first), ties in emission order. Built
// lazily and cached; Add invalidates the cache.
func (rs *RuleSet) ByBlock(b *cfg.Block) []*Rule {
	if rs.byBlock == nil {
		rs.byBlock = make(map[*cfg.Block][]*Rule)
		for _, r := range rs.rules {
			if r.Block != nil {
				rs.byBlock[r.Block] = append(rs.byBlock[r.Block], r)
			}
		}
		for _, list := range rs.byBlock {
			sort.SliceStable(list, func(i, j int) bool {
				return list[i].InstAddr() < list[j].InstAddr()
			})
		}
	}
	return rs.byBlock[b]
}

// RulesAt returns the rules sited at block address addr within mod.
// Keying by (module, address) — not bare address — is what keeps
// same-address blocks in distinct shared-library modules from
// colliding.
func (rs *RuleSet) RulesAt(mod *cfg.Module, addr uint64) []*Rule {
	var out []*Rule
	for _, r := range rs.rules {
		if r.Block == nil || r.Block.Start != addr {
			continue
		}
		if f := r.Block.Func; f == nil || f.Module != mod {
			continue
		}
		out = append(out, r)
	}
	return out
}
