package backend

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/vm"
)

// Ablation is a set of speed layers switched off for a run. Every layer
// is bit-identical in every observable — cycles, output, attribution —
// so switching one off changes only wall-clock time and leaves the
// layer's reference path, which the conformance matrix, the
// differential suites and the perf gates compare against.
type Ablation uint8

// The layers, in their command-line order.
const (
	// AblateCompile runs action bodies with the tree-walking
	// interpreter instead of the closure-compiled path.
	AblateCompile Ablation = 1 << iota
	// AblateTranslate runs the machine's per-instruction reference loop
	// instead of translated block programs.
	AblateTranslate
	// AblateInline runs translated blocks without action inlining:
	// each probe fires from a clean call instead of being fused into its
	// block, and counters are not promoted. The action bodies run the
	// same compiled executor either way.
	AblateInline
	// AblateIROpt skips the placement-IR passes (where-clause hoisting,
	// counter promotion, probe coalescing).
	AblateIROpt
	// AblateCache bypasses the artifact cache: the run builds its
	// instrumentation instead of replaying a recorded template.
	AblateCache

	// AblateAll switches every layer off: the full reference path.
	AblateAll = AblateCompile | AblateTranslate | AblateInline | AblateIROpt | AblateCache
)

var ablationNames = [...]string{"compile", "translate", "inline", "ir-opt", "cache"}

// Ablations lists the single-layer ablations in command-line order.
func Ablations() []Ablation {
	out := make([]Ablation, len(ablationNames))
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// String returns the set's command-line spelling: the layer names in
// order, comma-separated ("" for the empty set).
func (a Ablation) String() string {
	var names []string
	for i, n := range ablationNames {
		if a&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, ",")
}

// ParseAblation parses a comma-separated list of layer names; the empty
// string is the empty set.
func ParseAblation(s string) (Ablation, error) {
	if s == "" {
		return 0, nil
	}
	var a Ablation
	for _, name := range strings.Split(s, ",") {
		i := slices.Index(ablationNames[:], strings.TrimSpace(name))
		if i < 0 {
			return 0, fmt.Errorf("unknown ablation %q (layers: %s)", name, AblateAll)
		}
		a |= 1 << i
	}
	return a, nil
}

// ExecMode is the machine tier the set leaves: the reference loop when
// translation is ablated, translated block programs otherwise.
func (a Ablation) ExecMode() vm.ExecMode {
	if a&AblateTranslate != 0 {
		return vm.ExecInterpreted
	}
	return vm.ExecTranslated
}
