// Differential and golden tests for the placement rule IR.
//
// The optimization passes (where-clause hoisting, counter promotion,
// redundant-probe coalescing) claim to be bit-identical in every
// observable. TestIROptEquivalence holds them to it: every case-study
// tool crossed with generated victims, all three backends and both VM
// tiers, the ir-opt layer on vs ablated, comparing output, cycles,
// instruction counts, exit codes and the per-row attribution table.
// TestRuleIRGolden pins the optimized and unoptimized tables for the
// case-study tools as checked-in goldens, FuzzRuleIR fuzzes pass
// idempotence and placement preservation over generated tools, and
// TestIROptDispatchSpeedup is the perf gate that proves the passes
// actually buy wall-clock time.
package placement_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/conformance"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/obs"
	"repro/internal/progs"
)

var update = flag.Bool("update", false, "rewrite golden rule-IR dumps")

// tablePlacer accepts every trigger point and sees every module — the
// most permissive placer, used where only the rule table matters.
type tablePlacer struct {
	prog *cfg.Program
}

func (p *tablePlacer) Name() string                      { return "table" }
func (p *tablePlacer) Modules() []*cfg.Module            { return p.prog.Modules }
func (p *tablePlacer) SupportsLoops() bool               { return true }
func (p *tablePlacer) Lower(rs *placement.RuleSet) error { return nil }

func compileTool(tb testing.TB, src string) *engine.CompiledTool {
	tb.Helper()
	tool, err := engine.Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	return tool
}

func loadVictim(tb testing.TB, srcs []string) *cfg.Program {
	tb.Helper()
	prog, err := conformance.LoadVictim(srcs)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// --- Satellite: differential placement equivalence -------------------

// rowKey aggregates attribution rows order-independently: coalescing
// legitimately reorders probe registration (a merged probe registers
// at its first constituent's table position), but every (label,
// trigger, addr) row must carry identical counters either way.
type rowKey struct {
	label, trigger string
	addr           uint64
}

type rowVal struct {
	fires, skips, cycles uint64
}

type outcome struct {
	err                 string
	out                 string
	cycles, insts, exit uint64
	total               rowVal
	build               obs.BuildStats
	rows                map[rowKey]rowVal
}

// runOnce executes one (tool, victim, backend, ablation) cell with a
// fresh collector and reduces it to comparable facts.
func runOnce(tool *engine.CompiledTool, prog *cfg.Program, backendName string, ablate backend.Ablation, loopDetect bool) outcome {
	col := obs.New(obs.Options{})
	var buf strings.Builder
	res, err := backend.Run(tool, prog, backendName, backend.Options{
		Out:              &buf,
		PinLoopDetection: loopDetect,
		Obs:              col,
		Ablate:           ablate,
	})
	if err != nil {
		return outcome{err: err.Error()}
	}
	st := col.Snapshot(backendName)
	o := outcome{
		out:    buf.String(),
		cycles: res.Cycles,
		insts:  res.Insts,
		exit:   res.ExitCode,
		total:  rowVal{st.TotalFires, st.TotalSkips, st.ProbeCycles},
		build:  st.Build,
		rows:   make(map[rowKey]rowVal),
	}
	// The pass-effect counters are the one legitimate difference
	// between the two settings; everything else must match.
	o.build.WheresHoisted = 0
	o.build.CountersPromoted = 0
	o.build.ProbesCoalesced = 0
	for _, p := range st.Probes {
		k := rowKey{p.Label, p.Trigger, p.Addr}
		v := o.rows[k]
		v.fires += p.Fires
		v.skips += p.Skips
		v.cycles += p.Cycles
		o.rows[k] = v
	}
	return o
}

func diffOutcomes(a, b outcome) string {
	if a.err != "" || b.err != "" {
		if a.err != b.err {
			return fmt.Sprintf("error mismatch: ir-opt=%q no-ir-opt=%q", a.err, b.err)
		}
		return "" // both refused identically: a legal, equivalent outcome
	}
	if a.out != b.out {
		return fmt.Sprintf("tool output:\n  ir-opt:    %q\n  no-ir-opt: %q", a.out, b.out)
	}
	if a.cycles != b.cycles || a.insts != b.insts || a.exit != b.exit {
		return fmt.Sprintf("machine result: ir-opt (cycles=%d insts=%d exit=%d) vs no-ir-opt (cycles=%d insts=%d exit=%d)",
			a.cycles, a.insts, a.exit, b.cycles, b.insts, b.exit)
	}
	if a.total != b.total {
		return fmt.Sprintf("attribution totals: ir-opt %+v vs no-ir-opt %+v", a.total, b.total)
	}
	if a.build != b.build {
		return fmt.Sprintf("build stats: ir-opt %+v vs no-ir-opt %+v", a.build, b.build)
	}
	keys := make(map[rowKey]bool)
	for k := range a.rows {
		keys[k] = true
	}
	for k := range b.rows {
		keys[k] = true
	}
	for k := range keys {
		av, aok := a.rows[k]
		bv, bok := b.rows[k]
		switch {
		case !aok:
			return fmt.Sprintf("row %v only present with ir-opt off (%+v)", k, bv)
		case !bok:
			return fmt.Sprintf("row %v only present with ir-opt on (%+v)", k, av)
		case av != bv:
			return fmt.Sprintf("row %v: ir-opt %+v vs no-ir-opt %+v", k, av, bv)
		}
	}
	return ""
}

// TestIROptEquivalence is the differential gate for the IR passes:
// same tool, same victim, same backend, same tier — the optimized and
// unoptimized tables must produce the same run, row for row.
func TestIROptEquivalence(t *testing.T) {
	seeds := []uint64{11, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	type cell struct {
		name       string
		backend    string
		loopDetect bool
	}
	cells := []cell{
		{"janus", backend.Janus, false},
		{"dyninst", backend.Dyninst, false},
		{"pin", backend.Pin, false},
		{"pin+loops", backend.Pin, true},
	}
	tiers := []backend.Ablation{0, backend.AblateTranslate}
	for _, name := range progs.Names() {
		tool := compileTool(t, progs.MustSource(name))
		for _, seed := range seeds {
			prog := loadVictim(t, conformance.GenVictim(seed).Srcs)
			for _, c := range cells {
				for _, tier := range tiers {
					t.Run(fmt.Sprintf("%s/v%d/%s/%s", name, seed, c.name, tier.ExecMode()), func(t *testing.T) {
						opt := runOnce(tool, prog, c.backend, tier, c.loopDetect)
						raw := runOnce(tool, prog, c.backend, tier|backend.AblateIROpt, c.loopDetect)
						if d := diffOutcomes(opt, raw); d != "" {
							t.Error(d)
						}
					})
				}
			}
		}
	}
}

// --- Satellite: golden rule-IR dumps ---------------------------------

// goldenVictim exercises every placement surface the case-study tools
// instrument: loads and stores in a counted loop, malloc/free traffic,
// direct and indirect calls, and returns. Fixed source means fixed
// addresses, so the dumps are stable.
const goldenVictim = `
.module golden
.executable
.entry main
.extern malloc
.extern free
.func main
  add r8, r8, 3
  mov r8, 0
loop0:
  mov r9, @scratch
  mul r10, r8, 8
  add r9, r9, r10
  load r11, [r9]
  add r11, r11, r8
  store r11, [r9]
  add r8, r8, 1
  mov r12, 3
  blt r8, r12, loop0
  mov r1, 64
  call malloc
  mov r8, r0
  mov r9, 7
  store r9, [r8]
  load r10, [r8]
  mov r1, r8
  call free
  call f0
  mov r8, @fptrs
  load r9, [r8]
  call r9
  halt
.func f0
  sub sp, sp, 56
  store r8, [sp+0]
  add r8, r8, 3
  load r8, [sp+0]
  add sp, sp, 56
  ret
.func f1
  add r10, r10, 1
  ret
.data
scratch: .space 128
fptrs: .addr f1
`

func buildRules(tb testing.TB, tool *engine.CompiledTool, prog *cfg.Program, noIROpt bool) *placement.RuleSet {
	tb.Helper()
	rs, _, err := engine.BuildRules(tool, prog, &tablePlacer{prog: prog}, engine.Options{
		Out:     io.Discard,
		NoIROpt: noIROpt,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// TestRuleIRGolden pins the canonical RuleSet printout for every
// case-study tool against the fixed golden victim, in both pass
// settings, so placement changes are visible in review. Regenerate
// with `go test ./internal/core/placement -run TestRuleIRGolden -update`.
func TestRuleIRGolden(t *testing.T) {
	prog := loadVictim(t, []string{goldenVictim})
	cases := make(map[string]string)
	for _, name := range progs.Names() {
		cases[name] = progs.MustSource(name)
	}
	// The case-study tools are single-command, so their tables never
	// merge; the redundant-counter tool pins what a coalesced probe
	// looks like in the dump.
	cases["redundant_counters"] = redundantTool
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tool := compileTool(t, cases[name])
			var b strings.Builder
			b.WriteString("== ir-opt=on ==\n")
			b.WriteString(buildRules(t, tool, prog, false).String())
			b.WriteString("== ir-opt=off ==\n")
			b.WriteString(buildRules(t, tool, prog, true).String())
			got := b.String()

			path := filepath.Join("testdata", "golden", name+".ir")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("rule IR drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// --- Satellite: module-qualified rule lookup -------------------------

// TestRulesAtModuleKeying is the regression test for the shared-library
// collision: two blocks at the same address in different modules must
// never answer each other's lookups. (The old janus-private rule table
// was keyed by bare block address and did exactly that.)
func TestRulesAtModuleKeying(t *testing.T) {
	mkBlock := func(m *cfg.Module, addr uint64) *cfg.Block {
		f := &cfg.Func{Module: m, Entry: addr}
		b := &cfg.Block{Start: addr, End: addr + 8, Func: f}
		f.Blocks = []*cfg.Block{b}
		return b
	}
	exe := &cfg.Module{ID: 0}
	lib := &cfg.Module{ID: 1}
	const addr = 0x40
	eb, lb := mkBlock(exe, addr), mkBlock(lib, addr)

	rs := &placement.RuleSet{}
	re := &placement.Rule{Trigger: placement.BlockEntry, Block: eb, Action: &placement.Action{Label: "exe rule"}}
	rl := &placement.Rule{Trigger: placement.BlockEntry, Block: lb, Action: &placement.Action{Label: "lib rule"}}
	rs.Add(re)
	rs.Add(rl)

	if got := rs.RulesAt(exe, addr); len(got) != 1 || got[0] != re {
		t.Errorf("RulesAt(exe, %#x) = %v rules, want exactly the exe rule", addr, len(got))
	}
	if got := rs.RulesAt(lib, addr); len(got) != 1 || got[0] != rl {
		t.Errorf("RulesAt(lib, %#x) = %v rules, want exactly the lib rule", addr, len(got))
	}
	if got := rs.ByBlock(eb); len(got) != 1 || got[0] != re {
		t.Errorf("ByBlock(exe block) = %v rules, want exactly the exe rule", len(got))
	}
	if got := rs.ByBlock(lb); len(got) != 1 || got[0] != rl {
		t.Errorf("ByBlock(lib block) = %v rules, want exactly the lib rule", len(got))
	}
}

// TestRulesAtSharedLibVictim checks the same property end-to-end on a
// generated victim that loads a shared library: every placed rule is
// found under its own module and leaks into no other.
func TestRulesAtSharedLibVictim(t *testing.T) {
	var v *conformance.Victim
	for seed := uint64(0); seed < 200; seed++ {
		if c := conformance.GenVictim(seed); len(c.Srcs) > 1 {
			v = c
			break
		}
	}
	if v == nil {
		t.Fatal("no shared-library victim in the first 200 seeds")
	}
	prog := loadVictim(t, v.Srcs)
	tool := compileTool(t, progs.MustSource(progs.InstCountBasic))
	rs := buildRules(t, tool, prog, false)

	perModule := make(map[*cfg.Module]int)
	for _, r := range rs.Rules() {
		mod := r.Block.Func.Module
		perModule[mod]++
		found := false
		for _, got := range rs.RulesAt(mod, r.Block.Start) {
			if got == r {
				found = true
			}
			if got.Block.Func.Module != mod {
				t.Fatalf("RulesAt(%s, %#x) returned a rule from module %s",
					mod.Name(), r.Block.Start, got.Block.Func.Module.Name())
			}
		}
		if !found {
			t.Fatalf("rule at %#x in %s not found by RulesAt", r.Block.Start, mod.Name())
		}
	}
	if len(prog.Modules) < 2 {
		t.Fatal("victim lost its library module")
	}
	if perModule[prog.Modules[1]] == 0 {
		t.Error("no rules placed in the library module; the cross-module case is untested")
	}
}

// TestAppliedTableHasNoGroups requires the hoisting pass to detach every
// where group it resolves, so an applied table (and a template recorded
// from one) keeps nothing of the walk reachable through WhereGroup.Eval.
func TestAppliedTableHasNoGroups(t *testing.T) {
	b := &cfg.Block{Start: 0x40, End: 0x48}
	keep := &placement.WhereGroup{Eval: func() (bool, error) { return true, nil }}
	drop := &placement.WhereGroup{Eval: func() (bool, error) { return false, nil }}
	rs := &placement.RuleSet{}
	for _, g := range []*placement.WhereGroup{keep, drop, keep, nil} {
		rs.Add(&placement.Rule{Trigger: placement.BlockEntry, Block: b, Action: &placement.Action{Label: "a"}, Group: g})
	}
	if err := placement.Apply(rs, placement.Config{Optimize: true}); err != nil {
		t.Fatal(err)
	}
	if n := len(rs.Rules()); n != 3 {
		t.Errorf("applied table has %d rules, want 3", n)
	}

	prog := loadVictim(t, []string{goldenVictim})
	tool := compileTool(t, `
uint64 c = 0;
inst I {
  before I where (I.opcode == Load) { c = c + 1; }
}
`)
	deferred := 0
	for _, r := range append(rs.Rules(), buildRules(t, tool, prog, false).Rules()...) {
		if r.Group != nil {
			t.Errorf("rule %q at %#x kept its where group", r.Action.Label, r.SiteAddr())
		}
		if r.Where != nil {
			deferred++
		}
	}
	if deferred == 0 {
		t.Error("no rule of the where-clause tool had its clause deferred")
	}
}

// --- Satellite: fuzzing the pass pipeline ----------------------------

// placementKeys flattens the table to a multiset of concrete
// placements. Coalescing moves rules into Merged lists and promotion
// changes mechanisms, but the multiset of (trigger, site, instruction,
// label) placements must survive the passes untouched.
func placementKeys(rs *placement.RuleSet) map[string]int {
	keys := make(map[string]int)
	var add func(r *placement.Rule)
	add = func(r *placement.Rule) {
		if len(r.Merged) > 0 {
			for _, c := range r.Merged {
				add(c)
			}
			return
		}
		label := ""
		if r.Action != nil {
			label = r.Action.Label
		}
		from := uint64(0)
		if r.From != nil {
			from = r.From.Start
		}
		keys[fmt.Sprintf("%s|%#x|%#x|%#x|%s", r.Trigger, r.SiteAddr(), r.InstAddr(), from, label)]++
	}
	for _, r := range rs.Rules() {
		add(r)
	}
	return keys
}

// FuzzRuleIR drives generated tools and victims through the rule-IR
// build and asserts the pass pipeline's two structural contracts:
// Apply is idempotent (a second run is a fixpoint), and the passes
// preserve the placement multiset — coalescing must never drop a
// distinct (trigger, site, action) placement.
func FuzzRuleIR(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := conformance.GenProgram(seed)
		tool, err := engine.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: generated tool does not compile: %v\n%s", seed, err, p.Source)
		}
		prog, err := conformance.LoadVictim(conformance.GenVictim(seed).Srcs)
		if err != nil {
			t.Fatalf("seed %d: generated victim does not load: %v", seed, err)
		}
		opt := buildRules(t, tool, prog, false)
		raw := buildRules(t, tool, prog, true)

		before := opt.String()
		if err := placement.Apply(opt, placement.Config{Optimize: true}); err != nil {
			t.Fatalf("seed %d: second Apply: %v", seed, err)
		}
		if after := opt.String(); after != before {
			t.Fatalf("seed %d: Apply is not idempotent:\n--- first ---\n%s--- second ---\n%s", seed, before, after)
		}

		if o, r := opt.NumPlacements(), raw.NumPlacements(); o != r {
			t.Fatalf("seed %d: optimized table has %d placements, unoptimized %d", seed, o, r)
		}
		if o, r := placementKeys(opt), placementKeys(raw); !reflect.DeepEqual(o, r) {
			t.Fatalf("seed %d: placement multiset changed under the passes:\noptimized:   %v\nunoptimized: %v", seed, o, r)
		}
	})
}

// --- Satellite: perf gate and bench-rot coverage ---------------------

// redundantTool is the coalescing perf workload: four separate counter
// commands all firing before every add instruction — four probes per
// site that the passes fuse into one dispatch.
const redundantTool = `
uint64 a = 0;
uint64 b = 0;
uint64 c = 0;
uint64 d = 0;
inst I where (I.opcode == Add) {
  before I {
    a = a + 1;
  }
}
inst I where (I.opcode == Add) {
  before I {
    b = b + 1;
  }
}
inst I where (I.opcode == Add) {
  before I {
    c = c + 1;
  }
}
inst I where (I.opcode == Add) {
  before I {
    d = d + 1;
  }
}
exit {
  print(a + b + c + d);
}
`

// hotVictim is an add-dense nested loop (~600k application
// instructions) so probe dispatch dominates the run.
const hotVictim = `
.module hot
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 400
outer:
  mov r3, 0
  mov r4, 250
inner:
  add r5, r5, 1
  add r6, r6, 2
  add r7, r7, 3
  add r3, r3, 1
  blt r3, r4, inner
  add r1, r1, 1
  blt r1, r2, outer
  halt
`

func benchRedundantRun(tb testing.TB, ablate backend.Ablation) func(b *testing.B) {
	tool := compileTool(tb, redundantTool)
	prog := loadVictim(tb, []string{hotVictim})
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := backend.Run(tool, prog, backend.Janus, backend.Options{
				Out:    io.Discard,
				Ablate: ablate,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestIROptDispatchSpeedup is the perf regression gate for the IR
// passes: on the redundant-probe workload the optimized table
// (coalesced dispatch, hoisted wheres, promoted counters) must beat
// the unoptimized one by at least 1.1x wall-clock. Like the other
// perf gates it only runs when CINNAMON_PERF_GATE is set.
func TestIROptDispatchSpeedup(t *testing.T) {
	if os.Getenv("CINNAMON_PERF_GATE") == "" {
		t.Skip("set CINNAMON_PERF_GATE=1 to run the placement-IR perf gate")
	}
	measure := func(f func(*testing.B)) float64 {
		best := 0.0
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
			if best == 0 || nsPerOp < best {
				best = nsPerOp
			}
		}
		return best
	}
	on := measure(benchRedundantRun(t, 0))
	off := measure(benchRedundantRun(t, backend.AblateIROpt))
	speedup := off / on
	t.Logf("ir-opt on: %.0f ns/op, off: %.0f ns/op, speedup %.2fx", on, off, speedup)
	if speedup < 1.1 {
		t.Errorf("ir-opt speedup %.2fx below the 1.1x bar", speedup)
	}
}

// BenchmarkIROptRun measures the whole instrumented run in both pass
// settings — the number TestIROptDispatchSpeedup gates on.
func BenchmarkIROptRun(b *testing.B) {
	b.Run("opt", benchRedundantRun(b, 0))
	b.Run("noopt", benchRedundantRun(b, backend.AblateIROpt))
}

// BenchmarkApplyPasses isolates the pass pipeline itself: table build
// is excluded from the timed section, so this tracks the cost of
// hoisting, promotion and coalescing over a realistic rule table.
func BenchmarkApplyPasses(b *testing.B) {
	tool := compileTool(b, redundantTool)
	prog := loadVictim(b, []string{hotVictim})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs := buildRules(b, tool, prog, true)
		b.StartTimer()
		if err := placement.Apply(rs, placement.Config{Optimize: true}); err != nil {
			b.Fatal(err)
		}
	}
}
