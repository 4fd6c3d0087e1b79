package placement

import (
	"fmt"
	"strings"

	"repro/internal/core/ast"
)

// String renders the table in a canonical, golden-friendly form: one
// line per rule in emission order, merged constituents indented under
// their fused probe. Addresses and labels are deterministic for a
// given (tool, victim) pair, so checked-in goldens make placement
// changes visible in review.
func (rs *RuleSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ruleset: %d rules, %d placements, %d inits, %d finis\n",
		len(rs.rules), rs.NumPlacements(), len(rs.Inits), len(rs.Finis))
	for _, r := range rs.rules {
		b.WriteString(r.line())
		b.WriteByte('\n')
		for _, p := range r.Merged {
			b.WriteString("  + ")
			b.WriteString(p.line())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// line renders one rule; merged fusions summarize their shape and
// leave per-constituent detail to the indented lines.
func (r *Rule) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %#06x", r.Trigger, r.SiteAddr())
	if r.Trigger == Edge && r.From != nil {
		fmt.Fprintf(&b, " from=%#06x", r.From.Start)
	}
	if r.Block != nil && r.Block.Func != nil && r.Block.Func.Module != nil {
		fmt.Fprintf(&b, " [%s]", r.Block.Func.Module.Name())
	}
	fmt.Fprintf(&b, " mech=%s", r.Mechanism)
	if len(r.Merged) > 0 {
		fmt.Fprintf(&b, " merged=%d", len(r.Merged))
		return b.String()
	}
	if a := r.Action; a != nil {
		fmt.Fprintf(&b, " cost=%d", a.Cost)
		if a.Simple {
			b.WriteString(" simple")
		}
		if a.Sample > 1 {
			fmt.Fprintf(&b, " sample=%d", a.Sample)
		}
		if a.NumCaptured > 0 {
			fmt.Fprintf(&b, " captured=%d", a.NumCaptured)
		}
		if len(a.DynAttrs) > 0 {
			attrs := make([]string, len(a.DynAttrs))
			for i, da := range a.DynAttrs {
				attrs[i] = da.Var + "." + da.Attr
			}
			fmt.Fprintf(&b, " dyn=[%s]", strings.Join(attrs, ","))
		}
		fmt.Fprintf(&b, " %q", a.Label)
	}
	if r.Where != nil {
		fmt.Fprintf(&b, " where=(%s)", ast.ExprString(r.Where))
	}
	return b.String()
}
