package placement_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core/ast"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/core/placement"
	"repro/internal/obs"
	"repro/internal/progs"
)

// counterVictim interleaves loads and stores in a 40-iteration loop,
// so an action on the stores runs between any two firings of an action
// on the loads.
const counterVictim = `
.module counters
.executable
.entry main
.func main
  mov r8, 0
  mov r9, @buf
loop:
  load r10, [r9]
  add r10, r10, r8
  store r10, [r9]
  add r8, r8, 1
  mov r12, 40
  blt r8, r12, loop
  halt
.data
buf: .space 16
`

// counterCases lists action bodies and whether the classifier must
// promote them to counters. The first action in each source is the one
// under test; later actions only disturb its state.
var counterCases = []struct {
	name    string
	counter bool
	src     string
}{
	{"opcodemix body", true, `
uint64 executed[16];
uint64 total = 0;
inst I where (I.opcode == Load) {
  before I {
    executed[0] = executed[0] + 1;
    total = total + 1;
  }
}
exit { print(executed[0], total); }
`},
	{"fig5b body", true, progs.MustSource(progs.InstCountBB)},
	{"literal plus counter", true, `
uint64 c = 5;
inst I where (I.opcode == Load) {
  before I {
    c = 3 + c;
  }
}
exit { print(c); }
`},
	{"counter minus literal", true, `
uint64 c = 5;
inst I where (I.opcode == Load) {
  before I {
    c = c - 2;
  }
}
exit { print(c); }
`},
	{"two bumps of one cell", true, `
uint64 c = 0;
inst I where (I.opcode == Load) {
  before I {
    c = c + 1;
    c = c + 2;
  }
}
exit { print(c); }
`},
	{"captured addend into array element", true, `
int hist[4];
inst I where (I.opcode == Load) {
  uint64 n = I.size;
  before I {
    hist[3] = hist[3] - n;
  }
}
exit { print(hist[3]); }
`},
	{"bind-time constant addends", true, `
uint64 c = 0;
int hist[2];
basicblock B {
  entry B {
    c = c + B.ninsts;
    hist[1] = hist[1] - B.startaddr;
  }
}
exit { print(c, hist[1]); }
`},
	{"global addend written between firings", false, `
uint64 k = 1;
uint64 c = 0;
inst I where (I.opcode == Load) {
  before I {
    c = c + k;
  }
}
inst I where (I.opcode == Store) {
  before I {
    k = k + 1;
  }
}
exit { print(c, k); }
`},
	{"literal index outside the array", false, `
uint64 executed[16];
inst I where (I.opcode == Load) {
  before I {
    executed[16] = executed[16] + 1;
  }
}
exit { print(executed[0]); }
`},
	{"array the program rebinds", false, `
uint64 a[16];
uint64 b[4];
inst I where (I.opcode == Load) {
  before I {
    a[8] = a[8] + 1;
  }
}
inst I where (I.opcode == Store) {
  before I {
    a = b;
  }
}
exit { print(a[0]); }
`},
	{"array initialized from a shorter one", false, `
uint64 b[4];
uint64 a[16] = b;
inst I where (I.opcode == Load) {
  before I {
    a[8] = a[8] + 1;
  }
}
exit { print(a[0]); }
`},
	{"dynamic where guard", false, `
uint64 c = 0;
inst I where (I.opcode == Load) {
  before I where (I.memaddr % 2 == 0) {
    c = c + 1;
  }
}
exit { print(c); }
`},
	{"captured addend the body assigns", false, `
uint64 c = 0;
inst I where (I.opcode == Load) {
  uint64 n = 2;
  before I {
    c = c + n;
    n = n + 1;
  }
}
exit { print(c); }
`},
	{"multiplicative update", false, `
uint64 c = 1;
inst I where (I.opcode == Load) {
  before I {
    c = c * 2;
  }
}
exit { print(c); }
`},
	{"bump then print", false, `
uint64 c = 0;
inst I where (I.opcode == Load) {
  before I {
    c = c + 1;
    print(c);
  }
}
`},
}

// firstAction returns the first action of a command body in source
// order, or nil.
func firstAction(items []ast.CmdItem) *ast.Action {
	for _, it := range items {
		switch x := it.(type) {
		case *ast.Action:
			return x
		case *ast.Command:
			if a := firstAction(x.Body); a != nil {
				return a
			}
		}
	}
	return nil
}

// firstActionLabel returns the observability label of the tool's first
// action in source order.
func firstActionLabel(t *testing.T, tool *engine.CompiledTool) string {
	t.Helper()
	for _, it := range tool.Prog.Items {
		if cmd, ok := it.(*ast.Command); ok {
			if act := firstAction(cmd.Body); act != nil {
				return engine.Label(tool.Info.Actions[act], act)
			}
		}
	}
	t.Fatal("tool has no action")
	return ""
}

// counterRun is what the classifier test compares between tiers.
type counterRun struct {
	err, out string
	cycles   uint64
	fires    map[string]uint64
}

func runCounterCell(tool *engine.CompiledTool, prog *cfg.Program, ablate backend.Ablation) counterRun {
	var out strings.Builder
	col := obs.New(obs.Options{})
	res, err := backend.Run(tool, prog, backend.Janus, backend.Options{Out: &out, Obs: col, Ablate: ablate})
	r := counterRun{out: out.String(), fires: map[string]uint64{}}
	if err != nil {
		r.err = err.Error()
		return r
	}
	r.cycles = res.Cycles
	for _, p := range col.Snapshot(backend.Janus).Probes {
		r.fires[p.Label] += p.Fires
	}
	return r
}

// TestCounterClassification pins which action bodies run as promoted
// counters, and checks each one on the translated tier with inlining
// against the reference interpreters (tree-walking actions on the
// per-instruction machine loop, where no body is ever promoted):
// output, cycles, per-action fires and the recorded action error must
// match.
func TestCounterClassification(t *testing.T) {
	prog := loadVictim(t, []string{counterVictim})
	for _, c := range counterCases {
		t.Run(c.name, func(t *testing.T) {
			tool := compileTool(t, c.src)
			label := firstActionLabel(t, tool)
			placed := 0
			for _, r := range buildRules(t, tool, prog, false).Rules() {
				for _, p := range append([]*placement.Rule{r}, r.Merged...) {
					if p.Action.Label != label {
						continue
					}
					placed++
					if got := p.Mechanism == placement.MechCounter; got != c.counter {
						t.Errorf("%s at %#x: mech=%s, want counter=%v", label, p.SiteAddr(), p.Mechanism, c.counter)
					}
				}
			}
			if placed == 0 {
				t.Fatalf("%s was never placed", label)
			}
			inline := runCounterCell(tool, prog, 0)
			ref := runCounterCell(tool, prog, backend.AblateCompile|backend.AblateTranslate)
			if !reflect.DeepEqual(inline, ref) {
				t.Errorf("translated+inline run differs from the interpreters:\n  inline: %s\n  ref:    %s", fmtRun(inline), fmtRun(ref))
			}
		})
	}
}

func fmtRun(r counterRun) string {
	return fmt.Sprintf("err=%q out=%q cycles=%d fires=%v", r.err, r.out, r.cycles, r.fires)
}
