package governor_test

import (
	"reflect"
	"testing"

	"repro/cinnamon"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/workload"
)

// target loads a loop-heavy suite benchmark at a scale long enough for
// many governor windows.
func target(t *testing.T) *cinnamon.Target {
	t.Helper()
	spec, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf benchmark")
	}
	mods, err := spec.Build(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := cinnamon.LoadModules(mods)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func compile(t *testing.T, name string) *cinnamon.Tool {
	t.Helper()
	tool, err := cinnamon.Compile(progs.MustSource(name))
	if err != nil {
		t.Fatal(err)
	}
	return tool
}

func overhead(s *cinnamon.Stats, cycles uint64) float64 {
	return float64(s.ProbeCycles) / float64(cycles)
}

// TestBudgetEnforcement runs an expensive tool far over budget and
// checks the governor brings steady-state attributed overhead under it.
func TestBudgetEnforcement(t *testing.T) {
	tool := compile(t, progs.InstCountBasic)
	tgt := target(t)

	free, err := tool.Run(tgt, cinnamon.Janus, cinnamon.RunOptions{Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	freeOver := overhead(free.Stats, free.Cycles)
	if freeOver < 0.05 {
		t.Fatalf("ungoverned overhead %.3f not over budget; pick a heavier tool", freeOver)
	}

	gov, err := tool.Run(tgt, cinnamon.Janus, cinnamon.RunOptions{Budget: "5%"})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := gov.Stats.Governor.(governor.State)
	if !ok {
		t.Fatalf("Stats.Governor is %T, want governor.State", gov.Stats.Governor)
	}
	if st.Paces == 0 {
		t.Fatal("governor never paced")
	}
	if len(st.Decisions) == 0 {
		t.Fatalf("overhead %.3f over budget but no decisions taken", freeOver)
	}
	if st.LastOverhead > st.Budget {
		t.Errorf("steady-state window overhead %.4f exceeds budget %.4f (decisions: %d)",
			st.LastOverhead, st.Budget, len(st.Decisions))
	}
	govOver := overhead(gov.Stats, gov.Cycles)
	if govOver >= freeOver {
		t.Errorf("governed overhead %.4f not below ungoverned %.4f", govOver, freeOver)
	}
	for _, d := range st.Decisions {
		if d.Action != "downsample" && d.Action != "eject" {
			t.Errorf("unexpected decision action %q", d.Action)
		}
		if d.Action == "downsample" && d.NewStride != d.OldStride*2 && d.NewStride != st.MaxStride {
			t.Errorf("downsample %d -> %d is not a doubling", d.OldStride, d.NewStride)
		}
	}
}

// TestTierDeterminism checks the governed run — cycle counts, tool
// output and the full decision log — is identical with every speed
// layer on, with each one switched off and with all of them off: pace
// points hit the same machine states everywhere.
func TestTierDeterminism(t *testing.T) {
	tool := compile(t, progs.InstCountBasic)
	tgt := target(t)

	var base *cinnamon.Report
	var baseSt governor.State
	for _, a := range append([]backend.Ablation{0, backend.AblateAll}, backend.Ablations()...) {
		r := a.String()
		rep, err := tool.Run(tgt, cinnamon.Janus, cinnamon.RunOptions{Budget: "5%", Ablate: r})
		if err != nil {
			t.Fatalf("ablate=%q: %v", r, err)
		}
		st := rep.Stats.Governor.(governor.State)
		if base == nil {
			base, baseSt = rep, st
			if len(st.Decisions) == 0 {
				t.Fatal("no decisions to compare")
			}
			continue
		}
		if rep.Cycles != base.Cycles {
			t.Errorf("ablate=%q: cycles %d != %d", r, rep.Cycles, base.Cycles)
		}
		if rep.ToolOutput != base.ToolOutput {
			t.Errorf("ablate=%q: tool output diverges", r)
		}
		if !reflect.DeepEqual(st.Decisions, baseSt.Decisions) {
			t.Errorf("ablate=%q: decision log diverges:\n%+v\nvs\n%+v", r, st.Decisions, baseSt.Decisions)
		}
	}
}

// TestMailboxCommands ejects a probe by operator command before the run
// starts; the command is applied at the first pace point and the probe
// stays ejected.
func TestMailboxCommands(t *testing.T) {
	c, err := engine.Compile(progs.MustSource(progs.InstCountBasic))
	if err != nil {
		t.Fatal(err)
	}
	tgt := target(t)
	col := obs.New(obs.Options{})
	g, err := governor.New(governor.Config{Budget: 0.99, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	g.Enqueue(governor.Command{Probe: 1, Action: "eject"})
	_, err = backend.Run(c, tgt.Prog, backend.Janus, backend.Options{
		Obs: col, Adaptive: true, OnMachine: g.Attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := g.State()
	found := false
	for _, d := range st.Decisions {
		if d.Action == "eject" && d.Probe == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("eject command not applied; decisions: %+v", st.Decisions)
	}
	for _, p := range st.Probes {
		if p.Probe == 1 && p.Enabled {
			t.Error("probe 1 still enabled after eject")
		}
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  bool
	}{
		{"", 0, false},
		{"5%", 0.05, false},
		{"0.05", 0.05, false},
		{" 1% ", 0.01, false},
		{"0", 0, true},
		{"150%", 0, true},
		{"-3%", 0, true},
		{"zap", 0, true},
		{"NaN", 0, true},
		{"nan%", 0, true},
	}
	for _, c := range cases {
		got, err := governor.ParseBudget(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseBudget(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseBudget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
