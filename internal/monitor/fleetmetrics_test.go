package monitor

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/obs"
)

// checkExposition validates Prometheus text-exposition conformance
// line by line — HELP and TYPE precede a family's samples, counters end
// in _total, no duplicate series, parseable values — and returns the
// series map (metric name + rendered labels → value) for cross-scrape
// assertions.
func checkExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	series := map[string]float64{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Errorf("line %d: HELP without help text: %q", ln+1, line)
			}
			helpSeen[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := f[2], f[3]
			if !helpSeen[name] {
				t.Errorf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if typ != "counter" && typ != "gauge" {
				t.Errorf("line %d: unexpected type %q", ln+1, typ)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("line %d: counter %s lacks _total suffix", ln+1, name)
			}
			if _, dup := typeSeen[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typeSeen[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if typeSeen[name] == "" {
			t.Errorf("line %d: sample for %s before its TYPE", ln+1, name)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		key := line[:sp]
		if strings.Contains(key, "{") && !strings.HasSuffix(key, "}") {
			t.Errorf("line %d: unbalanced label braces: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Errorf("line %d: unparseable value: %q", ln+1, line)
		}
		if _, dup := series[key]; dup {
			t.Errorf("line %d: duplicate series %s", ln+1, key)
		}
		series[key] = val
	}
	return series
}

// single registers the collector as session s1 of a one-session fleet,
// the shape a `cinnamon -listen` run is served in.
func single(t *testing.T, col *obs.Collector, backendName string) (*Fleet, *FleetSession) {
	t.Helper()
	f := NewFleet()
	sess, err := f.Add(SessionLabels{Session: "s1", Tool: "inline", Victim: "v", Backend: backendName}, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f, sess
}

// s1 renders session s1's label set for the given backend.
func s1(backendName string) string {
	return `session="s1",tool="inline",victim="v",backend="` + backendName + `"`
}

// Every family a scraper of one run reads — per-probe counters, the
// untracked bucket, build statistics, translation, trace and governor
// families — is conformant exposition under the session's labels.
func TestMetricsExpositionConformance(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 2})
	a := col.RegisterProbe(obs.ProbeMeta{Label: "before inst @7:3", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	b := col.RegisterProbe(obs.ProbeMeta{Label: "before inst @7:3", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	e := col.RegisterProbe(obs.ProbeMeta{Label: "edge check", Trigger: obs.TriggerEdge, Mechanism: obs.MechInlinedCall})
	col.MutateBuild(func(s *obs.BuildStats) { s.ActionsPlaced = 2; s.CleanCalls = 2; s.InlinedCalls = 1 })
	col.Fire(a, 10, 0x100)
	col.Fire(b, 10, 0x104)
	col.Fire(e, 4, 0x200)
	col.Fire(obs.NoProbe, 7, 0x300)
	f, sess := single(t, col, "pin")
	g, err := governor.New(governor.Config{Budget: 0.05, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	sess.SetGovernor(g)

	text, series := fleetScrape(t, f)

	// Same-label placements aggregate into one series.
	key := `cinnamon_probe_fires_total{` + s1("pin") + `,probe="before inst @7:3",trigger="before",mechanism="clean-call"}`
	if series[key] != 2 {
		t.Fatalf("aggregated fires = %v, want 2\n%s", series[key], text)
	}
	if series[`cinnamon_probe_cycles_total{`+s1("pin")+`,probe="edge check",trigger="edge",mechanism="inlined-call"}`] != 4 {
		t.Fatalf("edge cycles missing\n%s", text)
	}
	if series[`cinnamon_untracked_fires_total{`+s1("pin")+`}`] != 1 ||
		series[`cinnamon_untracked_cycles_total{`+s1("pin")+`}`] != 7 {
		t.Fatalf("untracked bucket not exported\n%s", text)
	}
	if series[`cinnamon_build_clean_calls{`+s1("pin")+`}`] != 2 {
		t.Fatalf("build stats not exported\n%s", text)
	}
	if series[`cinnamon_governor_budget{`+s1("pin")+`}`] != 0.05 {
		t.Fatalf("governor budget not exported\n%s", text)
	}
	for _, name := range []string{
		"cinnamon_untracked_skips_total",
		"cinnamon_build_actions_placed", "cinnamon_build_static_filtered", "cinnamon_build_rules_emitted",
		"cinnamon_build_inlined_calls", "cinnamon_build_snippets",
		"cinnamon_translated_blocks_total", "cinnamon_translation_cycles_total",
		"cinnamon_trace_dropped_total", "cinnamon_trace_subscribers", "cinnamon_trace_subscriber_dropped_total",
		"cinnamon_governor_paces_total", "cinnamon_governor_overhead", "cinnamon_governor_cum_overhead",
		"cinnamon_governor_decisions_total", "cinnamon_governor_ejected_probes",
	} {
		if _, ok := series[name+"{"+s1("pin")+"}"]; !ok {
			t.Errorf("family %s missing for session s1\n%s", name, text)
		}
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	col := obs.New(obs.Options{})
	id := col.RegisterProbe(obs.ProbeMeta{
		Label:     "odd\"label\\with\nnewline",
		Trigger:   obs.TriggerBefore,
		Mechanism: obs.MechSnippet,
	})
	col.Fire(id, 1, 0)
	f, _ := single(t, col, "dyninst")

	text, series := fleetScrape(t, f)

	want := `cinnamon_probe_fires_total{` + s1("dyninst") + `,probe="odd\"label\\with\nnewline",trigger="before",mechanism="snippet"}`
	if series[want] != 1 {
		t.Fatalf("escaped series not found; exposition:\n%s", text)
	}
	if strings.Contains(text, "odd\"label") || strings.Count(text, "\nnewline") > 0 {
		t.Fatalf("raw unescaped label leaked into exposition:\n%s", text)
	}
}

func TestMetricsMonotoneAcrossScrapes(t *testing.T) {
	col := obs.New(obs.Options{TraceCap: 2})
	id := col.RegisterProbe(obs.ProbeMeta{Label: "hot", Trigger: obs.TriggerBefore, Mechanism: obs.MechCleanCall})
	f, _ := single(t, col, "vm")

	col.Fire(id, 3, 0x10)
	_, first := fleetScrape(t, f)

	for i := 0; i < 100; i++ {
		col.Fire(id, 3, 0x10)
	}
	col.NoteTranslation(50)
	_, second := fleetScrape(t, f)

	for key, v1 := range first {
		if !strings.Contains(key, "_total") {
			continue
		}
		if v2, ok := second[key]; !ok || v2 < v1 {
			t.Errorf("counter %s went %v -> %v (missing or decreased)", key, v1, v2)
		}
	}
	key := `cinnamon_probe_fires_total{` + s1("vm") + `,probe="hot",trigger="before",mechanism="clean-call"}`
	if first[key] != 1 || second[key] != 101 {
		t.Fatalf("fires %v -> %v, want 1 -> 101", first[key], second[key])
	}
	if second[`cinnamon_translated_blocks_total{`+s1("vm")+`}`] != 1 {
		t.Fatalf("translation counter not exported")
	}
}
