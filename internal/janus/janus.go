// Package janus is a clean-room, Go reimplementation of the programming
// model of Janus, the hybrid static/dynamic binary modification framework
// built on DynamoRIO. It is one of the three backend substrates the
// Cinnamon compiler targets.
//
// Janus splits a tool into two halves:
//
//   - a *static analyzer* that walks the executable's recovered control
//     flow ahead of time and annotates instructions and basic blocks with
//     *rewrite rules* — compact records naming a dynamic handler and
//     carrying payload words of static analysis data;
//   - a *dynamic instrumenter* (DynamoRIO underneath) that translates the
//     binary one basic block at a time and, before a block first executes,
//     decodes its rewrite rules and inserts clean calls to the registered
//     handlers, passing the payload words as arguments.
//
// Fidelity notes, matching the paper:
//
//   - the static analyzer only sees the main executable, so rules (and
//     therefore instrumentation) never cover shared-library code — Janus's
//     counts match Dyninst's, not Pin's, in Figure 12;
//   - clean calls whose handler is simple enough are inlined by the
//     dynamic translator (as DynamoRIO does), which is why Janus sits
//     between Pin and Dyninst in the Figure 13 overhead ordering;
//   - static analysis data reaches handlers as rule payload words, the
//     exact mechanism Cinnamon uses to pass analysis results to actions.
package janus

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core/placement"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Dispatch cost model (cycle units).
const (
	// CleanCallCost is charged per non-inlined handler invocation
	// (DynamoRIO clean call: full context switch into the tool).
	CleanCallCost = 30
	// InlinedCallCost is charged when the dynamic translator can inline
	// the clean call (simple, branch-free handler).
	InlinedCallCost = 10
	// ArgCost is charged per payload word materialized for a handler.
	ArgCost = 2
	// BlockTranslationCost is the one-time cost of translating a basic
	// block and scanning its rewrite rules.
	BlockTranslationCost = 300
)

// Trigger says where, relative to the annotated location, the handler is
// invoked.
type Trigger uint8

// Rule triggers.
const (
	// TriggerBefore / TriggerAfter bracket a single instruction. After a
	// call instruction, TriggerAfter fires at the fall-through once the
	// callee returns.
	TriggerBefore Trigger = iota
	TriggerAfter
	// TriggerBlockEntry fires when the annotated basic block is entered.
	TriggerBlockEntry
	// TriggerEdge fires when the intraprocedural edge (Aux -> block) is
	// traversed; Aux holds the source block address.
	TriggerEdge
	// TriggerInit / TriggerFini fire before the first and after the last
	// application instruction.
	TriggerInit
	TriggerFini
)

// Rule is a rewrite rule: the static analyzer's annotation on a location
// in the binary, consumed by the dynamic instrumenter.
type Rule struct {
	// BlockAddr is the start address of the annotated basic block.
	BlockAddr uint64
	// InstAddr is the annotated instruction (for before/after triggers).
	InstAddr uint64
	// Aux is trigger-specific (source block address for TriggerEdge).
	Aux uint64
	// Trigger selects the invocation point.
	Trigger Trigger
	// Handler names the dynamic handler to invoke.
	Handler HandlerID
	// Data is the static-analysis payload passed to the handler.
	Data []uint64
}

// HandlerID names a registered dynamic handler.
type HandlerID uint16

// HandlerFn is a dynamic handler. It receives the machine context and the
// rule's payload words.
type HandlerFn func(c *vm.Ctx, data []uint64)

// Handler couples a handler function with its cost properties. Cost is
// the body's work in cycle units; Inlinable marks handlers simple enough
// for DynamoRIO's clean-call inlining.
type Handler struct {
	Fn        HandlerFn
	Cost      uint64
	Inlinable bool
	// Label identifies the handler in observability reports (optional;
	// the Cinnamon backend sets it to the originating action).
	Label string
	// Sample, when > 1, arms each rule applying the handler with a
	// sampling countdown: the handler fires on every Sample-th hit of
	// that placement; swallowed hits cost only the inlined gate (see
	// vm.SampleGateCost).
	Sample uint64
}

// StaticAnalyzer is the ahead-of-time half of a Janus run. Tools walk the
// executable's control flow through it and emit rewrite rules.
type StaticAnalyzer struct {
	prog  *cfg.Program
	rules []Rule
}

// Executable returns the main executable module — the only code the
// static analyzer can see.
func (sa *StaticAnalyzer) Executable() *cfg.Module { return sa.prog.Modules[0] }

// Program exposes the loaded program for address lookups.
func (sa *StaticAnalyzer) Program() *cfg.Program { return sa.prog }

// EmitRule appends a rewrite rule.
func (sa *StaticAnalyzer) EmitRule(r Rule) { sa.rules = append(sa.rules, r) }

// convert resolves native rewrite rules into the shared placement
// table, keyed by the executable module's recovered blocks. Addresses
// are resolved against the executable ONLY — the static analyzer
// never sees other modules, so a same-address block in a shared
// library must not pick the rule up (the former bare-address
// RuleTable keyed exactly that collision). Rules naming unknown
// handlers or unresolvable addresses are skipped, as the dynamic side
// of real Janus does with stale rules; init/fini rules are returned
// separately for the machine's start/end hooks.
func convert(prog *cfg.Program, rules []Rule, handlers map[HandlerID]Handler) (*placement.RuleSet, []globalRule) {
	exe := prog.Modules[0]
	blocks := make(map[uint64]*cfg.Block)
	instBlock := make(map[uint64]*cfg.Block)
	insts := make(map[uint64]*isa.Inst)
	for _, f := range exe.Funcs {
		for _, b := range f.Blocks {
			blocks[b.Start] = b
			for _, in := range b.Insts {
				insts[in.Addr] = in
				instBlock[in.Addr] = b
			}
		}
	}

	rs := &placement.RuleSet{}
	var global []globalRule
	for _, r := range rules {
		h, ok := handlers[r.Handler]
		if !ok {
			continue
		}
		if r.Trigger == TriggerInit || r.Trigger == TriggerFini {
			global = append(global, globalRule{h: h, data: r.Data, fini: r.Trigger == TriggerFini})
			continue
		}
		pr := &placement.Rule{Action: h.action(r.Data)}
		switch r.Trigger {
		case TriggerBefore, TriggerAfter:
			pr.Inst, pr.Block = insts[r.InstAddr], instBlock[r.InstAddr]
			if r.Trigger == TriggerAfter {
				pr.Trigger = placement.After
			}
		case TriggerBlockEntry:
			pr.Trigger, pr.Block = placement.BlockEntry, blocks[r.BlockAddr]
		case TriggerEdge:
			pr.Trigger, pr.From, pr.Block = placement.Edge, blocks[r.Aux], blocks[r.BlockAddr]
		}
		if pr.Block == nil || ((pr.Trigger == placement.Before || pr.Trigger == placement.After) && pr.Inst == nil) ||
			(pr.Trigger == placement.Edge && pr.From == nil) {
			continue
		}
		rs.Add(pr)
	}
	return rs, global
}

// globalRule is a resolved init/fini rule awaiting its machine hook.
type globalRule struct {
	h    Handler
	data []uint64
	fini bool
}

// action adapts a handler application to the shared placement Action,
// pre-binding the rule payload, so the one translator path below serves
// native and Cinnamon tools alike. Native handlers dispatch generically.
func (h Handler) action(data []uint64) *placement.Action {
	fn := h.Fn
	return &placement.Action{
		Label:       h.Label,
		Cost:        h.Cost,
		Simple:      h.Inlinable,
		Sample:      h.Sample,
		NumCaptured: len(data),
		Raw:         func(c *vm.Ctx) { fn(c, data) },
	}
}

// Tool is a complete Janus tool: a static pass plus dynamic handlers,
// or (for the Cinnamon backend) a pre-lowered placement table.
type Tool struct {
	// Name identifies the tool.
	Name string
	// StaticPass walks the binary and emits rewrite rules.
	StaticPass func(sa *StaticAnalyzer)
	// Handlers maps handler IDs to dynamic handlers.
	Handlers map[HandlerID]Handler
	// Rules, when non-nil, is a pre-built placement table consumed
	// directly instead of running StaticPass (the Cinnamon engine
	// produces it; init/fini code rides in its Inits/Finis).
	Rules *placement.RuleSet
	// Glue is the per-dispatch marshalling surcharge added on top of
	// the clean-call/inlined base and the handler body cost. Native
	// tools leave it 0 (their Handler.Cost already prices the whole
	// body); the Cinnamon backend sets its Janus glue constant.
	Glue uint64
}

// share prices and labels one dispatch of an action for its attribution
// row: an inlined call for a simple handler, else a clean call, costing
// the mechanism's base, one ArgCost per payload word, the body cost and
// the configured glue.
func share(a *placement.Action, glue uint64) vm.Share {
	sh := vm.Share{Label: a.Label, Mechanism: obs.MechCleanCall, Cost: CleanCallCost}
	if a.Simple {
		sh.Mechanism, sh.Cost = obs.MechInlinedCall, InlinedCallCost
	}
	sh.Cost += uint64(a.NumCaptured)*ArgCost + a.Cost + glue
	return sh
}

// Run executes the program under Janus: the tool's static pass runs
// first (unless a pre-built placement table is supplied), producing
// the shared rule table; then the dynamic instrumenter executes the
// program on a machine configured by c, translating blocks on first
// execution and instrumenting them according to their rules.
func Run(prog *cfg.Program, tool *Tool, c vm.Config) (*vm.Result, error) {
	rs := tool.Rules
	var global []globalRule
	emitted := 0
	if rs == nil {
		sa := &StaticAnalyzer{prog: prog}
		if tool.StaticPass != nil {
			tool.StaticPass(sa)
		}
		rs, global = convert(prog, sa.rules, tool.Handlers)
		emitted = len(sa.rules)
	} else {
		emitted = rs.NumPlacements()
		if len(rs.Inits) > 0 {
			emitted++
		}
		if len(rs.Finis) > 0 {
			emitted++
		}
	}
	if c.Obs != nil {
		c.Obs.MutateBuild(func(b *obs.BuildStats) { b.RulesEmitted = emitted })
	}

	machine := vm.New(prog, c)
	// The dynamic instrumenter: translate one block at a time, decode the
	// block's rewrite rules, insert clean calls. The per-block lookup is
	// keyed by the block itself — module-qualified by construction — so
	// a same-address shared-library block never picks up the
	// executable's rules.
	err := machine.SetTranslator(BlockTranslationCost, func(b *cfg.Block) {
		for _, r := range rs.ByBlock(b) {
			var site vm.Site
			switch r.Trigger {
			case placement.Before:
				site = vm.Site{When: vm.BeforeInst, Addr: r.Inst.Addr}
			case placement.After:
				site = vm.Site{When: vm.AfterInst, Addr: r.Inst.Addr}
			case placement.BlockEntry:
				site = vm.Site{When: vm.AtBlockEntry, Addr: r.Block.Start}
			case placement.Edge:
				site = vm.Site{When: vm.AtEdge, Addr: r.Block.Start, From: r.From.Start}
			}
			sh := share(r.Action, tool.Glue)
			pr := vm.Probe{Fn: r.Action.CtxExec(), Cost: sh.Cost, Label: sh.Label, Mechanism: sh.Mechanism}
			pr.Pure, pr.Flush = r.Inline()
			if parts := r.Merged; len(parts) > 0 {
				// One merged probe, one attribution share per
				// constituent — the report stays row-for-row identical
				// to separate installation.
				pr.Shares = make([]vm.Share, len(parts))
				for i, p := range parts {
					pr.Shares[i] = share(p.Action, tool.Glue)
				}
			} else {
				pr.Stride = r.Action.Sample
			}
			// Rules that cannot be applied are skipped, as the dynamic
			// side of real Janus does with stale rules.
			_ = machine.Add(site, pr)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, g := range global {
		g := g
		if g.fini {
			machine.OnEnd(func(ctx *vm.Ctx) { g.h.Fn(ctx, g.data) })
		} else {
			machine.OnStart(func(ctx *vm.Ctx) { g.h.Fn(ctx, g.data) })
		}
	}
	if tool.Rules != nil {
		if inits := tool.Rules.Inits; len(inits) > 0 {
			machine.OnStart(func(ctx *vm.Ctx) {
				for _, fn := range inits {
					fn()
				}
			})
		}
		if finis := tool.Rules.Finis; len(finis) > 0 {
			machine.OnEnd(func(ctx *vm.Ctx) {
				for _, fn := range finis {
					fn()
				}
			})
		}
	}
	res, err := machine.Run()
	if err != nil {
		return nil, fmt.Errorf("janus: %s: %w", tool.Name, err)
	}
	return res, nil
}

// AnalyzeOnly runs just the static pass and returns the resolved
// placement table (useful for tests and for inspecting what a tool
// annotates).
func AnalyzeOnly(prog *cfg.Program, tool *Tool) *placement.RuleSet {
	sa := &StaticAnalyzer{prog: prog}
	if tool.StaticPass != nil {
		tool.StaticPass(sa)
	}
	rs, _ := convert(prog, sa.rules, tool.Handlers)
	return rs
}
