// Package governor implements the live overhead governor: a feedback
// controller that watches the observability layer's cycle attribution
// while the instrumented program runs and keeps total probe overhead
// under a user-declared budget ("-budget 5%") by downsampling — and
// ultimately ejecting — the most expensive probes.
//
// The governor is the consumer of two adaptive mechanisms the machine
// exposes (see internal/vm's adaptive layer):
//
//   - per-probe control blocks, which let it raise a probe's sampling
//     stride or disable the probe entirely, mid-run, with the same
//     block-invalidation machinery mid-run installation uses;
//   - the cycle-paced hook (vm.SetPacer), which runs the governor at
//     block-start dispatch on a fixed cycle cadence — the identical
//     machine state on both execution tiers, so every decision the
//     governor makes is a deterministic function of the instrumented
//     run, reproducible across tiers and replayable from its decision
//     log.
//
// # Policy
//
// Each pace window the governor computes the window's attributed
// overhead: the delta of collector probe cycles over the delta of
// machine cycles. While that ratio exceeds the budget it downsamples
// the probe that spent the most cycles in the window — doubling its
// sampling stride — and once a probe reaches MaxStride it is ejected
// (disabled) instead. Decisions are taken until the window's projected
// cost fits the budget (doubling a stride is modelled as halving the
// probe's next-window cost, ejecting as zeroing it), so a tool with
// hundreds of placements converges in a handful of windows rather than
// one placement per window; every decision is appended to a replayable
// log.
//
// Ejected probes are not gone: re-arm commands (from the monitor
// server's /sessions/{id}/governor endpoint, or Enqueue directly) are
// mailboxed and applied at the next pace point, on the run goroutine,
// where control mutations are legal.
package governor

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Defaults for Config fields left zero.
const (
	// DefaultWindow is the pace cadence in machine cost units
	// (vm.UnitsPerCycle units = one nominal cycle).
	DefaultWindow = 20000
	// DefaultMaxStride is the sampling stride past which a probe is
	// ejected rather than downsampled further.
	DefaultMaxStride = 1024
)

// Config parameterizes a Governor.
type Config struct {
	// Budget is the maximum fraction of machine cycles the governed run
	// may spend in probes (0.05 = 5%). Must be > 0.
	Budget float64
	// Collector is the attribution source. Required: the governor
	// steers by attributed cycles, not wall-clock guesses.
	Collector *obs.Collector
	// Window is the evaluation cadence in machine cost units (0 =
	// DefaultWindow).
	Window uint64
	// MaxStride caps downsampling; a probe at the cap is ejected
	// instead (0 = DefaultMaxStride).
	MaxStride uint64
}

// Decision is one control action the governor took, in a form that can
// be replayed: applying the logged actions in order to an identical run
// reproduces the governed run exactly.
type Decision struct {
	// Seq numbers decisions from 0 in the order they were taken.
	Seq int `json:"seq"`
	// Cycles is the machine cycle-unit count at the pace point that
	// took the decision.
	Cycles uint64 `json:"cycles"`
	// Overhead is the window's attributed probe overhead (fraction of
	// machine cycles) that triggered the decision; 0 for mailbox
	// commands.
	Overhead float64 `json:"overhead"`
	// Probe is the probe's report slot index (Stats.Probes[Probe-1]).
	Probe int `json:"probe"`
	// Label is the probe's report label.
	Label string `json:"label"`
	// Action is "downsample", "eject", "rearm" or "stride".
	Action string `json:"action"`
	// OldStride and NewStride are the sampling stride before and after
	// ("eject" and "rearm" keep the stride).
	OldStride uint64 `json:"old_stride"`
	NewStride uint64 `json:"new_stride"`
}

// ProbeState is the governed state of one adaptive probe.
type ProbeState struct {
	// Probe is the probe's report slot index.
	Probe int `json:"probe"`
	// Label is the probe's report label.
	Label string `json:"label"`
	// Stride and BaseStride are the current and installation-time
	// sampling strides.
	Stride     uint64 `json:"stride"`
	BaseStride uint64 `json:"base_stride"`
	// Enabled is false while the probe is ejected.
	Enabled bool `json:"enabled"`
}

// State is a snapshot of the governor, JSON-shaped for the monitor
// server (/sessions/{id}/stats embeds it, /sessions/{id}/governor
// serves it).
type State struct {
	// Budget and Window echo the configuration.
	Budget    float64 `json:"budget"`
	Window    uint64  `json:"window"`
	MaxStride uint64  `json:"max_stride"`
	// Paces counts evaluation points so far.
	Paces uint64 `json:"paces"`
	// LastOverhead is the attributed overhead of the most recent
	// window; CumOverhead the run-so-far ratio.
	LastOverhead float64 `json:"last_overhead"`
	CumOverhead  float64 `json:"cum_overhead"`
	// Probes lists the governed probes.
	Probes []ProbeState `json:"probes"`
	// Decisions is the replayable decision log.
	Decisions []Decision `json:"decisions"`
}

// Command is a mailboxed control request, applied at the next pace
// point on the run goroutine.
type Command struct {
	// Probe is the report slot index of the target probe.
	Probe int `json:"probe"`
	// Action is "rearm" (re-enable an ejected probe and restore its
	// installation-time stride), "eject" (disable) or "stride" (set the
	// sampling stride to Stride; 0 restores the installation-time one).
	Action string `json:"action"`
	Stride uint64 `json:"stride,omitempty"`
}

// Governor is the live overhead controller. Create with New, wire with
// Attach (or backend.Options.OnMachine), observe with State.
type Governor struct {
	budget    float64
	window    uint64
	maxStride uint64
	col       *obs.Collector
	m         *vm.VM

	// mu guards everything below: step mutates on the run goroutine,
	// State/Summary/Enqueue run on observer goroutines.
	mu        sync.Mutex
	paces     uint64
	lastOver  float64
	prevProbe uint64 // collector probe cycles at previous pace
	prevTotal uint64 // machine cycles at previous pace
	decisions []Decision
	mailbox   []Command
	// The pace buffers, kept across paces so that a pace allocates only
	// while they grow: each report slot's probe cycles at this pace and
	// at the previous one, the probes' metadata (shared with the
	// collector), the machine's adaptive probes with, per report slot,
	// one plus the probe's index in infos (0: not governable), and an
	// over-budget window's candidates.
	cycles, prevCycles []uint64
	metas              []obs.ProbeMeta
	infos              []vm.ProbeInfo
	at                 []int32
	cands              []cand
	// probes caches the governed probe states as of the last pace point
	// that changed them (a decision, or a new probe), so State never
	// touches the machine from an observer goroutine (the machine's
	// adaptive state is run-goroutine only); listed counts the report
	// slots it covers and ejected its disabled probes.
	probes  []ProbeState
	listed  int
	ejected int
}

// cand is a governable probe of an over-budget window: its report slot
// index, its adaptive state and its projected next-window cost.
type cand struct {
	idx   int
	info  vm.ProbeInfo
	delta uint64
}

// New creates a Governor. Budget must be positive and Collector
// non-nil.
func New(c Config) (*Governor, error) {
	if !(c.Budget > 0) {
		return nil, fmt.Errorf("governor: budget must be positive, got %v", c.Budget)
	}
	if c.Collector == nil {
		return nil, fmt.Errorf("governor: a collector is required")
	}
	g := &Governor{budget: c.Budget, window: c.Window, maxStride: c.MaxStride, col: c.Collector}
	if g.window == 0 {
		g.window = DefaultWindow
	}
	if g.maxStride == 0 {
		g.maxStride = DefaultMaxStride
	}
	return g, nil
}

// Attach wires the governor to a machine: the machine must be created
// with Adaptive probes enabled, and Attach must run before the machine
// does (backend.Options.OnMachine arranges both).
func (g *Governor) Attach(m *vm.VM) {
	g.m = m
	m.SetPacer(g.window, g.step)
}

// step is the pace hook: runs on the run goroutine at block-start
// dispatch, every window cycles. It reads the probes' cycle counters;
// the machine's adaptive state only when a command or an over-budget
// window needs it, and labels only for logged decisions and for the
// probe cache when a decision or a new probe changed it.
func (g *Governor) step() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paces++
	var probeCycles uint64
	g.cycles, probeCycles, g.metas = g.col.CyclesInto(g.cycles)
	total := g.m.Cycles()
	logged := len(g.decisions)

	// Mailboxed commands first: operator intent precedes policy.
	for _, cmd := range g.mailbox {
		g.apply(cmd)
	}
	g.mailbox = g.mailbox[:0]

	dProbe := probeCycles - g.prevProbe
	dTotal := total - g.prevTotal
	if dTotal > 0 {
		g.lastOver = float64(dProbe) / float64(dTotal)
		if g.lastOver > g.budget {
			g.govern(dTotal)
		}
	}
	g.cycles, g.prevCycles = g.prevCycles, g.cycles
	g.prevProbe, g.prevTotal = probeCycles, total

	if len(g.decisions) > logged || len(g.metas) != g.listed {
		g.listProbes()
	}
}

// listProbes refreshes the observer-facing probe cache with the
// machine's post-decision state.
func (g *Governor) listProbes() {
	g.readProbes()
	g.probes = g.probes[:0]
	g.ejected = 0
	for _, info := range g.infos {
		idx := info.ID.Index()
		if idx == 0 {
			continue
		}
		ps := ProbeState{
			Probe:      idx,
			Stride:     info.Stride,
			BaseStride: info.BaseStride,
			Enabled:    info.Enabled,
		}
		if idx <= len(g.metas) {
			ps.Label = g.metas[idx-1].Label
		}
		if !ps.Enabled {
			g.ejected++
		}
		g.probes = append(g.probes, ps)
	}
	g.listed = len(g.metas)
}

// readProbes reads the machine's adaptive probes into infos and indexes
// them by report slot in at (probes installed without registration are
// not governable).
func (g *Governor) readProbes() {
	g.infos = g.m.AdaptiveProbes(g.infos)
	g.at = slices.Grow(g.at[:0], len(g.metas))[:len(g.metas)]
	clear(g.at)
	for j, info := range g.infos {
		if idx := info.ID.Index(); idx != 0 && idx <= len(g.at) {
			g.at[idx-1] = int32(j + 1)
		}
	}
}

// probe returns the adaptive state of the probe in report slot idx, as
// of the last readProbes, or nil when that slot is not governable.
func (g *Governor) probe(idx int) *vm.ProbeInfo {
	if idx < 1 || idx > len(g.at) || g.at[idx-1] == 0 {
		return nil
	}
	return &g.infos[g.at[idx-1]-1]
}

// govern enforces the budget for one over-budget window. It repeatedly
// downsamples (or, at MaxStride, ejects) the probe with the highest
// projected next-window cost until the projection fits the budget. The
// projection is first-order: doubling a sampling stride halves the
// probe's cost, ejecting zeroes it. Starting from the window's measured
// per-probe cycle deltas this converges in O(log overshoot) decisions,
// so a tool with hundreds of hot placements is brought under budget in
// a handful of windows instead of one placement per window.
func (g *Governor) govern(dTotal uint64) {
	g.readProbes()
	g.cands = g.cands[:0]
	var projected uint64
	for i, n := range g.cycles {
		info := g.probe(i + 1)
		if info == nil || !info.Enabled {
			continue
		}
		var prev uint64
		if i < len(g.prevCycles) {
			prev = g.prevCycles[i]
		}
		if d := n - prev; d > 0 {
			projected += d
			g.cands = append(g.cands, cand{idx: i, info: *info, delta: d})
		}
	}
	cands := g.cands
	limit := uint64(float64(dTotal) * g.budget)
	for projected > limit {
		worst := -1
		for j := range cands {
			if cands[j].delta == 0 {
				continue
			}
			if worst < 0 || cands[j].delta > cands[worst].delta {
				worst = j
			}
		}
		if worst < 0 {
			return
		}
		c := &cands[worst]
		d := Decision{
			Seq:       len(g.decisions),
			Cycles:    g.m.Cycles(),
			Overhead:  g.lastOver,
			Probe:     c.idx + 1,
			Label:     g.metas[c.idx].Label,
			OldStride: c.info.Stride,
		}
		if c.info.Stride >= g.maxStride {
			g.m.SetProbeEnabled(c.info.ID, false)
			d.Action, d.NewStride = "eject", c.info.Stride
			projected -= c.delta
			c.delta = 0
		} else {
			ns := c.info.Stride * 2
			if ns > g.maxStride {
				ns = g.maxStride
			}
			g.m.SetProbeStride(c.info.ID, ns)
			d.Action, d.NewStride = "downsample", ns
			c.info.Stride = ns
			projected -= c.delta / 2
			c.delta -= c.delta / 2
		}
		g.decisions = append(g.decisions, d)
	}
}

// apply executes one mailboxed command.
func (g *Governor) apply(cmd Command) {
	g.readProbes()
	info := g.probe(cmd.Probe)
	if info == nil {
		return
	}
	d := Decision{
		Seq:       len(g.decisions),
		Cycles:    g.m.Cycles(),
		Probe:     cmd.Probe,
		Label:     g.metas[cmd.Probe-1].Label,
		OldStride: info.Stride,
		NewStride: info.Stride,
	}
	switch cmd.Action {
	case "rearm":
		g.m.SetProbeEnabled(info.ID, true)
		g.m.SetProbeStride(info.ID, 0) // restore installation-time stride
		d.Action, d.NewStride = "rearm", info.BaseStride
	case "eject":
		g.m.SetProbeEnabled(info.ID, false)
		d.Action = "eject"
	case "stride":
		g.m.SetProbeStride(info.ID, cmd.Stride)
		ns := cmd.Stride
		if ns == 0 {
			ns = info.BaseStride
		}
		d.Action, d.NewStride = "stride", ns
	default:
		return
	}
	g.decisions = append(g.decisions, d)
}

// Enqueue mailboxes a control command; it is applied at the next pace
// point, on the run goroutine. Safe from any goroutine.
func (g *Governor) Enqueue(cmd Command) {
	g.mu.Lock()
	g.mailbox = append(g.mailbox, cmd)
	g.mu.Unlock()
}

// State snapshots the governor. Safe from any goroutine; the probe list
// reflects the machine state as of the last pace point (including the
// decisions taken there).
func (g *Governor) State() State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return State{
		Budget:       g.budget,
		Window:       g.window,
		MaxStride:    g.maxStride,
		Paces:        g.paces,
		LastOverhead: g.lastOver,
		CumOverhead:  g.cumOverhead(),
		Probes:       append([]ProbeState(nil), g.probes...),
		Decisions:    append([]Decision(nil), g.decisions...),
	}
}

// Summary is the scalar part of a State, with the probe list and the
// decision log reduced to counts.
type Summary struct {
	Budget                    float64
	Paces                     uint64
	LastOverhead, CumOverhead float64
	// Decisions counts the decision log; Ejected the probes of the
	// probe list that are disabled.
	Decisions, Ejected int
}

// Summary reads the governor's scalars without copying its probe list
// or decision log: what a metrics scrape exposes. Safe from any
// goroutine.
func (g *Governor) Summary() Summary {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Summary{
		Budget:       g.budget,
		Paces:        g.paces,
		LastOverhead: g.lastOver,
		CumOverhead:  g.cumOverhead(),
		Decisions:    len(g.decisions),
		Ejected:      g.ejected,
	}
}

// cumOverhead is the run-so-far attributed overhead as of the last pace
// point (0 before the first).
func (g *Governor) cumOverhead() float64 {
	if g.prevTotal == 0 {
		return 0
	}
	return float64(g.prevProbe) / float64(g.prevTotal)
}

// Decisions returns a copy of the replayable decision log. Safe from
// any goroutine.
func (g *Governor) Decisions() []Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Decision(nil), g.decisions...)
}

// ParseBudget parses a budget flag value: "5%" or "0.05" both mean
// five percent. The empty string means no budget (returns 0, nil).
func ParseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("governor: bad budget %q (want e.g. \"5%%\" or \"0.05\")", s)
	}
	if pct {
		v /= 100
	}
	if !(v > 0 && v < 1) { // also rejects NaN, which fails every comparison
		return 0, fmt.Errorf("governor: budget %q out of range (need 0 < budget < 1)", s)
	}
	return v, nil
}
