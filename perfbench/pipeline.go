package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cfg"
	"repro/internal/core/artifacts"
	"repro/internal/core/backend"
	"repro/internal/core/engine"
	"repro/internal/governor"
	"repro/internal/monitor"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// target is a program a session instruments.
type target struct {
	// key identifies the program; equal keys build equal programs.
	key string
	// args select the same program on the cinnamon CLI (nil when the
	// CLI cannot name it).
	args []string
	// build generates and assembles the program's modules.
	build func() ([]*obj.Module, error)
	// victim and loop name a looped victim, the fleet's job vocabulary.
	victim string
	loop   int
}

// job is one session's input: a tool run on a target under a backend.
type job struct {
	tool    string
	backend string
	target  target
	// budget attaches an overhead governor (fleet jobs only).
	budget string
}

func (j job) String() string {
	s := j.tool + "/" + j.backend + "/" + j.target.key
	if j.budget != "" {
		s += "/budget=" + j.budget
	}
	return s
}

// toolBackends lists every (tool, backend) pair of the case studies that
// the backends accept: loop tools do not map onto Pin.
func toolBackends() [][2]string {
	var out [][2]string
	for _, t := range progs.Names() {
		for _, be := range backend.Backends() {
			if t == progs.LoopCoverage && be == backend.Pin {
				continue
			}
			out = append(out, [2]string{t, be})
		}
	}
	return out
}

// recoverableSuite lists the suite benchmarks every backend accepts
// (the static rewriter refuses unrecoverable control flow).
func recoverableSuite() []workload.Spec {
	var out []workload.Spec
	for _, s := range workload.SPEC2017() {
		if !s.Unrecoverable {
			out = append(out, s)
		}
	}
	return out
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func victimTarget(name string) target {
	return target{
		key:   "victim:" + name,
		args:  []string{"-target=victim:" + name},
		build: func() ([]*obj.Module, error) { return one(workload.Victim(name)) },
	}
}

func loopedTarget(name string, loop int) target {
	return target{
		key:    fmt.Sprintf("victim:%s*%d", name, loop),
		args:   []string{"-target=victim:" + name, "-loop=" + strconv.Itoa(loop)},
		build:  func() ([]*obj.Module, error) { return one(workload.LoopedVictim(name, loop)) },
		victim: name,
		loop:   loop,
	}
}

func suiteTarget(s workload.Spec, scale float64) target {
	return target{
		key:   fmt.Sprintf("suite:%s@%s", s.Name, fmtFloat(scale)),
		args:  []string{"-target=suite:" + s.Name, "-scale=" + fmtFloat(scale)},
		build: func() ([]*obj.Module, error) { return s.Build(scale) },
	}
}

// generatedTarget is a fresh program of the suite benchmark's shape,
// drawn by the generator from genSeed instead of the benchmark's own seed.
func generatedTarget(shape workload.Spec, genSeed int64, scale float64) target {
	shape.Seed = genSeed
	return target{
		key:   fmt.Sprintf("gen:%s#%d@%s", shape.Name, genSeed, fmtFloat(scale)),
		build: func() ([]*obj.Module, error) { return shape.Build(scale) },
	}
}

// sized returns the target mk builds at the scale where an
// uninstrumented run executes about insts instructions: programs differ
// widely in work per driver iteration, and equal sizes leave a session's
// cost to its tool, backend and program structure.
func sized(mk func(scale float64) target, insts uint64) (target, error) {
	const probe = 0.2
	n, err := baselineInsts(mk(probe))
	if err != nil {
		return target{}, err
	}
	scale := math.Round(1000*probe*float64(insts)/float64(n)) / 1000
	return mk(math.Max(scale, 0.001)), nil
}

// baselineInsts counts the instructions of an uninstrumented run.
func baselineInsts(tg target) (uint64, error) {
	prog, err := loadTarget(newTracer(false), 0, 0, tg)
	if err != nil {
		return 0, err
	}
	res, err := vm.New(prog, vm.Config{AppOut: io.Discard}).Run()
	if err != nil {
		return 0, fmt.Errorf("baseline %s: %w", tg.key, err)
	}
	return res.Insts, nil
}

// deck deals items in seeded order, reshuffling after each pass, so
// every item is dealt about equally often.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	order []int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] { return &deck[T]{rng: rng, items: items} }

func (d *deck[T]) next() T {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.items))
	}
	it := d.items[d.order[0]]
	d.order = d.order[1:]
	return it
}

func one(m *obj.Module, err error) ([]*obj.Module, error) {
	if err != nil {
		return nil, err
	}
	return []*obj.Module{m}, nil
}

// built holds the artifacts of one set-up: compiled tools by name and
// loaded programs by target key.
type built struct {
	tools map[string]*engine.CompiledTool
	progs map[string]*cfg.Program
}

// setUp builds every artifact the jobs need from scratch — compile each
// tool, assemble and load each target, instrument each job — recording
// each repetition's duration. It repeats at least setupMinReps times and
// until setupMinTime has passed, collecting garbage before each
// repetition so that none pays for its predecessor's heap. The last
// repetition's artifacts are returned; their instrumentation templates
// are published in cache when one is given.
func (b *bench) setUp(jobs []job, cache func() *artifacts.Cache) (*built, error) {
	var last *built
	begin := time.Now()
	for rep := 0; rep < setupMinReps || time.Since(begin) < setupMinTime; rep++ {
		runtime.GC()
		var c *artifacts.Cache
		if cache != nil {
			c = cache()
		}
		start := time.Now()
		bt, err := b.buildOnce(jobs, c)
		if err != nil {
			return nil, err
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		last = bt
	}
	return last, nil
}

func (b *bench) buildOnce(jobs []job, cache *artifacts.Cache) (*built, error) {
	root := b.tr.begin("setup", 0, 0)
	bt := &built{tools: map[string]*engine.CompiledTool{}, progs: map[string]*cfg.Program{}}
	for _, j := range jobs {
		if bt.tools[j.tool] == nil {
			t, err := compileTool(b.tr, root, 0, j.tool)
			if err != nil {
				return nil, err
			}
			bt.tools[j.tool] = t
		}
		if bt.progs[j.target.key] == nil {
			p, err := loadTarget(b.tr, root, 0, j.target)
			if err != nil {
				return nil, err
			}
			bt.progs[j.target.key] = p
		}
	}
	type instKey struct{ tool, backend, target, budget string }
	seen := map[instKey]bool{}
	for _, j := range jobs {
		k := instKey{j.tool, j.backend, j.target.key, j.budget}
		if seen[k] {
			continue
		}
		seen[k] = true
		err := b.tr.do("instrument", root, 0, func() error {
			return backend.Prepare(bt.tools[j.tool], bt.progs[j.target.key], j.backend, backend.Options{
				Out: io.Discard, AppOut: io.Discard, Artifacts: cache, Adaptive: j.budget != "",
			})
		})
		if err != nil {
			return nil, fmt.Errorf("instrument %s: %w", j, err)
		}
	}
	b.tr.end(root)
	return bt, nil
}

// compileTool runs the tool front end on a built-in case study.
func compileTool(tr *tracer, parent, sess int, name string) (*engine.CompiledTool, error) {
	src, err := progs.Source(name)
	if err != nil {
		return nil, err
	}
	var t *engine.CompiledTool
	err = tr.do("compile", parent, sess, func() (err error) {
		t, err = engine.Compile(src)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return t, nil
}

// loadTarget assembles a target, loads it with the standard runtime and
// recovers its control flow.
func loadTarget(tr *tracer, parent, sess int, tg target) (*cfg.Program, error) {
	var mods []*obj.Module
	err := tr.do("assemble", parent, sess, func() (err error) {
		mods, err = tg.build()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", tg.key, err)
	}
	var prog *cfg.Program
	err = tr.do("cfg", parent, sess, func() error {
		p, err := obj.Load(mods, vm.RuntimeExterns())
		if err != nil {
			return err
		}
		prog, err = cfg.Build(p)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", tg.key, err)
	}
	return prog, nil
}

// outcome is what a session observably produced.
type outcome struct {
	out                         string
	insts, cycles, fires, skips uint64
	hits, misses                uint64
}

// same reports whether two outcomes agree on every deterministic
// observable (the tool output only where both captured it).
func (o outcome) same(r outcome, withOutput bool) bool {
	return o.insts == r.insts && o.cycles == r.cycles && o.fires == r.fires &&
		o.skips == r.skips && (!withOutput || o.out == r.out)
}

// reference runs the job on the interpreted VM tier without any artifact
// cache: the repository's reference execution path, against which the
// measured sessions are checked.
func reference(bt *built, j job) (outcome, error) {
	var out bytes.Buffer
	col := obs.New(obs.Options{})
	opts := backend.Options{Out: &out, AppOut: io.Discard, Obs: col, VMMode: vm.ExecInterpreted}
	if j.budget != "" {
		frac, err := governor.ParseBudget(j.budget)
		if err != nil {
			return outcome{}, err
		}
		gov, err := governor.New(governor.Config{Budget: frac, Collector: col})
		if err != nil {
			return outcome{}, err
		}
		opts.Adaptive = true
		opts.OnMachine = gov.Attach
	}
	res, err := backend.Run(bt.tools[j.tool], bt.progs[j.target.key], j.backend, opts)
	if err != nil {
		return outcome{}, fmt.Errorf("reference %s: %w", j, err)
	}
	snap := col.Snapshot(j.backend)
	return outcome{out: out.String(), insts: res.Insts, cycles: res.Cycles, fires: snap.TotalFires, skips: snap.TotalSkips}, nil
}

// references runs the reference for every distinct job.
func references(bt *built, jobs []job) (map[string]outcome, error) {
	refs := map[string]outcome{}
	for _, j := range jobs {
		if _, ok := refs[j.String()]; ok {
			continue
		}
		r, err := reference(bt, j)
		if err != nil {
			return nil, err
		}
		refs[j.String()] = r
	}
	return refs, nil
}

// session runs one monitored session in process: instrument and execute
// (split where the machine starts), then snapshot the collector and
// render its Prometheus exposition. cache may be nil (a cold build).
func session(tr *tracer, parent, sess int, tool *engine.CompiledTool, prog *cfg.Program, j job, cache *artifacts.Cache) (outcome, error) {
	var out bytes.Buffer
	col := obs.New(obs.Options{})
	var execStart time.Time
	opts := backend.Options{
		Out: &out, AppOut: io.Discard, Obs: col, Artifacts: cache,
		OnMachine: func(m *vm.VM) { m.OnStart(func(*vm.Ctx) { execStart = time.Now() }) },
	}
	start := time.Now()
	res, err := backend.Run(tool, prog, j.backend, opts)
	end := time.Now()
	if err != nil {
		return outcome{}, err
	}
	tr.add("instrument", parent, sess, start, execStart)
	tr.add("execute", parent, sess, execStart, end)

	var snap *obs.Stats
	_ = tr.do("snapshot", parent, sess, func() error {
		snap = col.Snapshot(j.backend)
		return nil
	})
	f := monitor.NewFleet()
	fs, err := f.Add(monitor.SessionLabels{Session: "s1", Tool: j.tool, Victim: j.target.key, Backend: j.backend}, col, nil)
	if err != nil {
		return outcome{}, err
	}
	fs.Finish(monitor.SessionDone, res.Cycles, res.Insts, "")
	var page bytes.Buffer
	_ = tr.do("expose", parent, sess, func() error {
		monitor.WriteFleetMetrics(&page, f)
		return nil
	})
	if page.Len() == 0 {
		return outcome{}, fmt.Errorf("empty exposition")
	}
	return outcome{
		out: out.String(), insts: res.Insts, cycles: res.Cycles,
		fires: snap.TotalFires, skips: snap.TotalSkips,
		hits: uint64(snap.Build.ArtifactHits), misses: uint64(snap.Build.ArtifactMisses),
	}, nil
}
