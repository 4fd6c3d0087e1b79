package backend

import (
	"strings"
	"testing"
)

func TestParseAblation(t *testing.T) {
	cases := []struct {
		in   string
		want Ablation
		err  bool
	}{
		{"", 0, false},
		{"compile", AblateCompile, false},
		{"translate", AblateTranslate, false},
		{"inline", AblateInline, false},
		{"ir-opt", AblateIROpt, false},
		{"cache", AblateCache, false},
		{"inline,translate", AblateTranslate | AblateInline, false},
		{"cache, ir-opt", AblateIROpt | AblateCache, false},
		{"compile,translate,inline,ir-opt,cache", AblateAll, false},
		{"jit", 0, true},
		{"inline,", 0, true},
		{",", 0, true},
		{"Inline", 0, true},
	}
	for _, c := range cases {
		got, err := ParseAblation(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseAblation(%q) = %v, want an error", c.in, got)
			} else if !strings.Contains(err.Error(), "compile,translate,inline,ir-opt,cache") {
				t.Errorf("ParseAblation(%q) error %q does not name the layers", c.in, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseAblation(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// String and ParseAblation round-trip on every set, and the single-layer
// ablations cover the full set in command-line order.
func TestAblationString(t *testing.T) {
	if got := Ablation(0).String(); got != "" {
		t.Errorf("empty set prints %q", got)
	}
	if got := (AblateInline | AblateCompile).String(); got != "compile,inline" {
		t.Errorf("String() = %q, want compile,inline", got)
	}
	var all Ablation
	for _, a := range Ablations() {
		all |= a
	}
	if all != AblateAll || len(Ablations()) != 5 {
		t.Errorf("Ablations() = %v, want the five layers of %v", Ablations(), AblateAll)
	}
	for a := Ablation(0); a <= AblateAll; a++ {
		got, err := ParseAblation(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAblation(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
}
