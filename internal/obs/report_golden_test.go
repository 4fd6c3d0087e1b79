package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenStats builds a fully deterministic report exercising every
// writer feature: multi-site probe groups, all three mechanisms, the
// untracked bucket, build statistics and a trace window.
func goldenStats() *Stats {
	c := New(Options{TraceCap: 4})
	m1a := c.RegisterProbe(ProbeMeta{Label: "before inst @7:3", Trigger: TriggerBefore, Mechanism: MechCleanCall, Addr: 0x100, DispatchCost: 31})
	m1b := c.RegisterProbe(ProbeMeta{Label: "before inst @7:3", Trigger: TriggerBefore, Mechanism: MechCleanCall, Addr: 0x140, DispatchCost: 31})
	edge := c.RegisterProbe(ProbeMeta{Label: "edge @12:1", Trigger: TriggerEdge, Mechanism: MechInlinedCall, Addr: 0x200, DispatchCost: 9})
	snip := c.RegisterProbe(ProbeMeta{Label: "block-entry @3:1", Trigger: TriggerBlockEntry, Mechanism: MechSnippet, Addr: 0x300, DispatchCost: 14})
	// The mechanism counts come from the registrations above.
	c.MutateBuild(func(b *BuildStats) {
		b.ActionsPlaced = 3
		b.StaticFiltered = 1
	})
	c.NoteTranslation(120)
	c.NoteTranslation(95)

	for i := 0; i < 5; i++ {
		c.Fire(m1a, 31, 0x100)
	}
	for i := 0; i < 3; i++ {
		c.Fire(m1b, 31, 0x140)
	}
	for i := 0; i < 20; i++ {
		c.Fire(edge, 9, 0x200)
	}
	c.Fire(snip, 14, 0x300)
	c.Fire(NoProbe, 6, 0x999)
	return c.Snapshot("pin")
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(run `go test ./internal/obs -update` to accept)", name, got, want)
	}
}

func TestWriteTableGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenStats().WriteTable(&buf)
	checkGolden(t, "report.txt", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStats().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}
