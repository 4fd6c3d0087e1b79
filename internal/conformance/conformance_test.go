package conformance

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core/ast"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/core/parser"
	"repro/internal/governor"
	"repro/internal/obs"
)

// Every generated program must compile, and must be a fixed point of
// the canonical printer (the generator emits via ast.Print, so parsing
// and reprinting its output has to be byte-identical — otherwise the
// shrinker's candidate comparison would be meaningless).
func TestGeneratedProgramsCompileAndAreCanonical(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		p := GenProgram(seed)
		if _, err := engine.Compile(p.Source); err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, p.Source)
		}
		prog, err := parser.Parse(p.Source)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if got := ast.Print(prog); got != p.Source {
			t.Fatalf("seed %d: print/parse is not a fixed point:\n--- generated ---\n%s\n--- reprinted ---\n%s",
				seed, p.Source, got)
		}
	}
}

// The generator emits every construct of the compiled instrumentation
// walk, so the ablation-mismatch oracle holds each to the interpreter
// walk: opcode disjunctions, call-target name comparisons, a nested
// command's constraint over the outer local and the outer element, a
// defer-safe static action constraint on an instruction, and analysis
// code that prints and declares a local in an if.
func TestGeneratorCoversWalkShapes(t *testing.T) {
	shapes := map[string]*regexp.Regexp{
		"opcode disjunction":       regexp.MustCompile(`\.opcode == \w+ \|\| \w+\.opcode ==`),
		"trgname compare":          regexp.MustCompile(`\.trgname [!=]= "`),
		"nested where on outer":    regexp.MustCompile(`where \(.*n(B\d+) \* 2 < (B\d+)\.ninsts\)`),
		"defer-safe action where":  regexp.MustCompile(`(before|after) I\d+ where \(I\d+\.(size >= 1|addr % 3 != 0)\)`),
		"analysis print":           regexp.MustCompile(`(?m)^  print\(`),
		"analysis if with a local": regexp.MustCompile(`(?m)^    int w = `),
	}
	seen := make(map[string]bool)
	for seed := uint64(0); seed < 200; seed++ {
		src := GenProgram(seed).Source
		for name, re := range shapes {
			if re.MatchString(src) {
				seen[name] = true
			}
		}
	}
	for name := range shapes {
		if !seen[name] {
			t.Errorf("no program of seeds 0-199 has a %s", name)
		}
	}
}

func TestGeneratedVictimsLoad(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		v := GenVictim(seed)
		if _, err := LoadVictim(v.Srcs); err != nil {
			t.Fatalf("seed %d: generated victim does not load: %v\n%s", seed, err, strings.Join(v.Srcs, "\n---\n"))
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := GenProgram(seed), GenProgram(seed)
		if a.Source != b.Source || a.UsesLoops != b.UsesLoops {
			t.Fatalf("seed %d: GenProgram is not deterministic", seed)
		}
		va, vb := GenVictim(seed), GenVictim(seed)
		if strings.Join(va.Srcs, "\x00") != strings.Join(vb.Srcs, "\x00") {
			t.Fatalf("seed %d: GenVictim is not deterministic", seed)
		}
	}
}

// The tentpole assertion: a bounded differential sweep finds zero
// illegal divergences, and the oracle exercises (not masks) every
// documented legal divergence class.
func TestDifferentialSweep(t *testing.T) {
	res := Sweep(0, 60, time.Time{})
	for _, err := range res.Errors {
		t.Errorf("generator error: %v", err)
	}
	for _, pr := range res.Failures {
		t.Errorf("seed %d: illegal divergence:\n%s", pr.Program.Seed,
			DescribeFailure(pr, pr.Program.Source))
	}
	for _, class := range []string{ClassPinLoops, ClassPinLibs, ClassDyninstCFG} {
		if res.Legal[class] == 0 {
			t.Errorf("sweep never exercised legal divergence class %s", class)
		}
	}
	if res.SamplingChecks == 0 {
		t.Error("sweep never exercised the sampling-legality oracle")
	}
	if res.CountersPromoted == 0 {
		t.Error("sweep never ran a counter-promoted placement")
	}
}

// The sampling oracle's arithmetic checker must flag every violation
// shape: lost fires, duplicated fires, unaccounted skips, and moved
// placements. Fabricated rows, no run.
func TestSamplingOracleFlagsViolations(t *testing.T) {
	row := func(label, trigger string, addr, fires, skips uint64) obs.ProbeStats {
		return obs.ProbeStats{
			ProbeMeta: obs.ProbeMeta{Label: label, Trigger: trigger, Addr: addr},
			Fires:     fires, Skips: skips,
		}
	}
	strides := map[string]uint64{"before inst @3:3": 4}
	twin := []obs.ProbeStats{
		row("before inst @3:3", "before", 0x10, 10, 0),
		row("entry basicblock @5:3", "block-entry", 0x20, 7, 0),
	}
	good := []obs.ProbeStats{
		row("before inst @3:3", "before", 0x10, 2, 8), // floor(10/4)=2, skips 8
		row("entry basicblock @5:3", "block-entry", 0x20, 7, 0),
	}
	if divs, checks := compareSamplingRows(strides, good, twin); len(divs) != 0 || checks != 1 {
		t.Fatalf("legal rows flagged (checks=%d): %v", checks, divs)
	}
	cases := map[string][]obs.ProbeStats{
		"lost fire": {row("before inst @3:3", "before", 0x10, 1, 9), good[1]},
		"dup fire":  {row("before inst @3:3", "before", 0x10, 3, 7), good[1]},
		"bad skips": {row("before inst @3:3", "before", 0x10, 2, 7), good[1]},
		"unsampled action diverged": {good[0],
			row("entry basicblock @5:3", "block-entry", 0x20, 6, 0)},
		"placement moved": {row("before inst @3:3", "before", 0x18, 2, 8), good[1]},
	}
	for name, rows := range cases {
		if divs, _ := compareSamplingRows(strides, rows, twin); len(divs) == 0 {
			t.Errorf("%s: violation not flagged", name)
		}
	}
}

// Per-placement countdowns are independent: a multi-site sampled action
// whose sites see co-prime hit counts must satisfy the floor relation
// at every site (the label-aggregated sum would not).
func TestSamplingPerPlacementIndependence(t *testing.T) {
	src := `uint64 c0 = 0;
inst I where (I.opcode == Add) {
  before I sample 4 {
    c0 = c0 + 1;
  }
}
exit {
  print("c0", c0);
}
`
	tool, err := engine.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Two Add sites with different hit counts (loop body vs straight
	// line): 10 hits and 1 hit. floor(10/4)+floor(1/4) = 2, while
	// floor(11/4) = 2 as well — so also check the per-row skips, which
	// do differ (8+1 vs 9 distributed differently across rows).
	prog, err := LoadVictim([]string{`
.module a.out
.executable
.entry main
.func main
  mov r1, 0
  mov r2, 0
  mov r3, 10
head:
  add r1, r1, 1
  blt r1, r3, head
  add r2, r2, 5
  halt
`})
	if err != nil {
		t.Fatal(err)
	}
	divs, checks := CompareSampling(tool, prog)
	if checks != 2 {
		t.Fatalf("checked %d placements, want 2", checks)
	}
	if len(divs) != 0 {
		t.Fatalf("sampling divergences: %v", divs)
	}
}

// Sweeping the same range twice must classify identically: the whole
// harness (generator, runner, oracle) is deterministic end to end.
func TestSweepDeterministic(t *testing.T) {
	a := Sweep(100, 25, time.Time{})
	b := Sweep(100, 25, time.Time{})
	if a.Summary() != b.Summary() {
		t.Fatalf("sweep is not deterministic:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
}

// Oracle classification on fabricated results: a tampered output in any
// ablated cell must be exactly one illegal ablation-mismatch naming that
// cell, an untracked firing or skip in any cell exactly one illegal
// untracked-firing naming that cell, and a Pin undercount on a
// multi-module victim must be illegal (dominance is required, not just
// "any difference is Pin being Pin").
func TestOracleFlagsTamperedResults(t *testing.T) {
	mk := func(cell Cell) RunResult {
		return RunResult{
			Cell: cell, Output: "c0 7\n", Insts: 100, Cycles: 500,
			Fires: map[string]uint64{"before inst @3:3": 40},
		}
	}
	cells := Cells(Traits{})
	results := make([]RunResult, len(cells))
	for i, c := range cells {
		results[i] = mk(c)
	}

	if divs := Compare(results, Traits{}); len(divs) != 0 {
		t.Fatalf("identical results produced divergences: %v", divs)
	}

	// Tamper each ablated cell in turn.
	tampers := 0
	for i, c := range cells {
		if c.Ablate == 0 {
			continue
		}
		tampers++
		tampered := make([]RunResult, len(results))
		copy(tampered, results)
		tampered[i].Output = "c0 8\n"
		divs := Compare(tampered, Traits{})
		if len(divs) != 1 || divs[0].Class != ClassAblation || divs[0].Legal || divs[0].Cells[1] != c {
			t.Errorf("tampered %s not flagged as one illegal ablation-mismatch: %v", c, divs)
		}
	}
	// Three backends, each ungoverned and governed.
	if want := 2 * 3 * (len(backend.Ablations()) + 1); tampers != want {
		t.Fatalf("tampered %d ablated cells, want %d", tampers, want)
	}

	// A governed column that runs the application differently from its
	// ungoverned twin is one illegal governed-app-mismatch, naming the
	// default cells; its decision log is a Rule 1 observable.
	for _, b := range []string{backend.Janus, backend.Dyninst, backend.Pin} {
		for _, field := range []string{"insts", "exit", "err"} {
			tampered := make([]RunResult, len(results))
			copy(tampered, results)
			for i, c := range cells {
				if c.Backend != b || !c.Governed {
					continue
				}
				switch field {
				case "insts":
					tampered[i].Insts++
				case "exit":
					tampered[i].ExitCode = 3
				case "err":
					tampered[i].Err = "vm: trap"
				}
			}
			divs := Compare(tampered, Traits{})
			want := [2]Cell{{Backend: b}, {Backend: b, Governed: true}}
			if len(divs) != 1 || divs[0].Class != ClassGoverned || divs[0].Legal || divs[0].Cells != want {
				t.Errorf("%s governed column with tampered %s not flagged as one illegal governed-app-mismatch: %v", b, field, divs)
			}
		}
	}
	for i, c := range cells {
		if !c.Governed || c.Ablate == 0 {
			continue
		}
		tampered := make([]RunResult, len(results))
		copy(tampered, results)
		tampered[i].Decisions = []governor.Decision{{Action: "eject"}}
		divs := Compare(tampered, Traits{})
		if len(divs) != 1 || divs[0].Class != ClassAblation || !strings.Contains(divs[0].Detail, "decision logs differ") {
			t.Errorf("decision log of %s not flagged as one illegal ablation-mismatch: %v", c, divs)
		}
	}

	// A firing or skip that reached no row is illegal in every cell,
	// even where every other cell agrees.
	for i, c := range cells {
		tampered := make([]RunResult, len(results))
		copy(tampered, results)
		if i%2 == 0 {
			tampered[i].UntrackedFires = 3
		} else {
			tampered[i].UntrackedSkips = 2
		}
		divs := Compare(tampered, Traits{})
		if len(divs) != 1 || divs[0].Class != ClassUntracked || divs[0].Legal || divs[0].Cells[0] != c {
			t.Errorf("untracked count in %s not flagged as one illegal untracked-firing: %v", c, divs)
		}
	}

	// Pin undercounting on a multi-module victim is illegal even though
	// overcounting would be the legal pin-shared-libs divergence.
	under := make([]RunResult, len(results))
	copy(under, results)
	for i := range under {
		if under[i].Cell.Backend == backend.Pin {
			under[i].Fires = map[string]uint64{"before inst @3:3": 30}
		}
	}
	divs := Compare(under, Traits{MultiModule: true})
	found := false
	for _, d := range divs {
		if d.Class == ClassBackend && !d.Legal && strings.Contains(d.Detail, "undercounts") {
			found = true
		}
	}
	if !found {
		t.Fatalf("pin undercount not flagged: %v", divs)
	}

	// Pin overcounting on a multi-module victim is the legal class.
	over := make([]RunResult, len(results))
	copy(over, results)
	for i := range over {
		if over[i].Cell.Backend == backend.Pin {
			over[i].Fires = map[string]uint64{"before inst @3:3": 55}
			over[i].Output = "c0 9\n"
		}
	}
	divs = Compare(over, Traits{MultiModule: true})
	if len(divs) != 1 || divs[0].Class != ClassPinLibs || !divs[0].Legal {
		t.Fatalf("pin overcount not classified as legal pin-shared-libs: %v", divs)
	}

	// The same overcount on a single-module victim is illegal.
	divs = Compare(over, Traits{})
	if len(divs) == 0 || divs[0].Legal {
		t.Fatalf("single-module pin mismatch not flagged: %v", divs)
	}
}

// Known-divergence classification on real runs, not fabricated data:
// each corpus seed entry is built to trigger one oracle class.
func TestOracleClassifiesKnownDivergences(t *testing.T) {
	pairs, err := CorpusPairs()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"seed_agree":       "",
		"seed_pin_loops":   ClassPinLoops,
		"seed_pin_libs":    ClassPinLibs,
		"seed_dyninst_cfg": ClassDyninstCFG,
	}
	for _, p := range pairs {
		class, ok := want[p.Name]
		if !ok {
			continue
		}
		pr, err := ReplayPair(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if ill := pr.Illegal(); len(ill) > 0 {
			t.Errorf("%s: illegal divergences: %v", p.Name, ill)
		}
		if class == "" {
			if len(pr.Divergences) != 0 {
				t.Errorf("%s: want full agreement, got %v", p.Name, pr.Divergences)
			}
			continue
		}
		found := false
		for _, d := range pr.Divergences {
			if d.Class == class && d.Legal {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: oracle did not classify the %s divergence: %v", p.Name, class, pr.Divergences)
		}
	}
}

// With the loop-detection extension, Pin must rejoin the cross-check:
// its loop-trigger fire counts and output agree with Janus exactly on
// single-module victims.
func TestPinLoopDetectionRejoinsMatrix(t *testing.T) {
	pairs, err := CorpusPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Name != "seed_pin_loops" {
			continue
		}
		pr, err := ReplayPair(p)
		if err != nil {
			t.Fatal(err)
		}
		var ref, pinLD *RunResult
		for i := range pr.Results {
			r := &pr.Results[i]
			if r.Cell == (Cell{Backend: backend.Janus}) {
				ref = r
			}
			if r.Cell == (Cell{Backend: backend.Pin, LoopDetection: true}) {
				pinLD = r
			}
		}
		if ref == nil || pinLD == nil {
			t.Fatal("matrix missing janus reference or pin+loopdet cell")
		}
		if pinLD.Err != "" {
			t.Fatalf("pin+loopdet failed: %s", pinLD.Err)
		}
		if pinLD.Output != ref.Output {
			t.Errorf("pin+loopdet output %q != janus %q", pinLD.Output, ref.Output)
		}
		return
	}
	t.Fatal("seed_pin_loops corpus entry missing")
}

func TestShrinkerDeterministicAndMinimal(t *testing.T) {
	// A predicate standing in for "reproduces the divergence": the
	// program still contains a basicblock command and an assignment
	// incrementing c0. Everything else should shrink away.
	fails := func(src string) bool {
		return strings.Contains(src, "basicblock") && strings.Contains(src, "c0 = c0 + 1;")
	}
	seed := findSeed(t, func(p *Program) bool { return fails(p.Source) })
	src := GenProgram(seed).Source
	a := Shrink(src, fails)
	b := Shrink(src, fails)
	if a != b {
		t.Fatalf("shrinker is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !fails(a) {
		t.Fatalf("shrunk program no longer fails:\n%s", a)
	}
	if len(a) >= len(src) {
		t.Fatalf("shrinker made no progress: %d -> %d bytes", len(src), len(a))
	}
	if _, err := engine.Compile(a); err != nil {
		t.Fatalf("shrunk program does not compile: %v\n%s", err, a)
	}
	// Minimality: removing any single remaining element must break the
	// predicate or the program (that is the shrinker's fixpoint).
	prog, err := parser.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < countSlots(prog); i++ {
		c := ast.Print(deleteSlot(prog, i))
		if c == a {
			continue
		}
		if _, err := engine.Compile(c); err == nil && fails(c) {
			t.Fatalf("shrunk program is not 1-minimal: slot %d still removable:\n%s", i, c)
		}
	}
}

// ShrinkFailure on a synthetic oracle failure: force a divergence by
// treating dyninst's legal CFG-skip as illegal via a victim trait lie
// is not possible (traits are derived), so instead shrink against a
// predicate that reruns the real matrix and requires the legal
// dyninst-cfg-skip class to survive. This exercises the full
// shrink-with-rerun path deterministically.
func TestShrinkAgainstRealMatrix(t *testing.T) {
	seed := findSeed(t, func(p *Program) bool {
		pr, err := RunPair(p, GenVictim(p.Seed))
		if err != nil {
			return false
		}
		for _, d := range pr.Divergences {
			if d.Class == ClassDyninstCFG {
				return true
			}
		}
		return false
	})
	p := GenProgram(seed)
	v := GenVictim(seed)
	keep := func(src string) bool {
		pr, err := RunPair(&Program{Source: src}, v)
		if err != nil {
			return false
		}
		for _, d := range pr.Divergences {
			if d.Class == ClassDyninstCFG {
				return true
			}
		}
		return false
	}
	a := Shrink(p.Source, keep)
	b := Shrink(p.Source, keep)
	if a != b {
		t.Fatalf("matrix-predicate shrink not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !keep(a) {
		t.Fatalf("shrunk program lost the divergence:\n%s", a)
	}
}

// findSeed scans forward from 0 for a generated program satisfying the
// predicate (deterministic, so tests always pick the same seed).
func findSeed(t *testing.T, ok func(*Program) bool) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 500; seed++ {
		if ok(GenProgram(seed)) {
			return seed
		}
	}
	t.Fatal("no seed in [0,500) satisfies the predicate")
	return 0
}

func TestCorpusFormatRoundTrip(t *testing.T) {
	tool := "uint64 c0 = 0;\nexit {\n  print(\"c0\", c0);\n}\n"
	victims := []string{".module a\n.executable\n.entry main\n.func main\n  halt\n", ".module b\n.global x\n.func x\n  ret\n"}
	text := FormatPair(tool, victims)
	p, err := ParsePair("rt", text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tool != tool {
		t.Errorf("tool round-trip:\n%q\nvs\n%q", p.Tool, tool)
	}
	if len(p.Victim) != 2 || p.Victim[0] != victims[0] || p.Victim[1] != victims[1] {
		t.Errorf("victims round-trip: %q", p.Victim)
	}
	if _, err := ParsePair("bad", "no markers at all\n"); err == nil {
		t.Error("content before marker not rejected")
	}
	if _, err := ParsePair("bad", "-- victim --\nx\n"); err == nil {
		t.Error("victim before tool not rejected")
	}
}
