package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os/exec"
	"time"

	"repro/internal/core/artifacts"
)

// The cold workload: every session is a fresh `cinnamon` process, so
// nothing is warm — the tool is compiled, the target generated,
// assembled and recovered, the instrumentation built and the program run,
// all from scratch. This is the path of a user running one tool on one
// binary from the shell. Sessions run one after another (a closed loop
// with one client).

// Every (tool, backend) pair runs on coldSmall of the monitoring victims
// as they are, a few hundred instructions each, and on coldLarge programs
// sized to about coldInsts instructions: the looped spin victim and the
// recoverable suite benchmarks. A fixed split per pair keeps the seed
// from piling one pair's sessions onto the large programs.
const (
	coldSmall = 2
	coldLarge = 3
	coldInsts = 50_000
)

// coldVictims are the monitoring victims run as they are.
var coldVictims = []string{"uaf_bug", "uaf_clean", "stack_smash", "stack_clean", "indirect_attack", "indirect_clean", "loopy"}

// coldJobs draws the cold job list from the seed: each (tool, backend)
// pair on small and large targets dealt in seeded order.
func coldJobs(seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	var small, large []target
	for _, v := range coldVictims {
		small = append(small, victimTarget(v))
	}
	loop, err := sizedLoop("spin", coldInsts)
	if err != nil {
		return nil, err
	}
	large = append(large, loopedTarget("spin", loop))
	for _, s := range recoverableSuite() {
		tg, err := sized(func(scale float64) target { return suiteTarget(s, scale) }, coldInsts)
		if err != nil {
			return nil, err
		}
		large = append(large, tg)
	}
	smallDeck, largeDeck := newDeck(rng, small), newDeck(rng, large)
	var jobs []job
	for _, p := range toolBackends() {
		for k := 0; k < coldSmall+coldLarge; k++ {
			deck := largeDeck
			if k < coldSmall {
				deck = smallDeck
			}
			jobs = append(jobs, job{tool: p[0], backend: p[1], target: deck.next()})
		}
	}
	rng.Shuffle(len(jobs), func(a, c int) { jobs[a], jobs[c] = jobs[c], jobs[a] })
	return jobs, nil
}

// sizedLoop returns the loop count at which the looped victim executes
// about insts instructions uninstrumented.
func sizedLoop(victim string, insts uint64) (int, error) {
	n1, err := baselineInsts(loopedTarget(victim, 100))
	if err != nil {
		return 0, err
	}
	n2, err := baselineInsts(loopedTarget(victim, 200))
	if err != nil {
		return 0, err
	}
	perIter := float64(n2-n1) / 100
	return max(1, int((float64(insts)-float64(n1))/perIter)+100), nil
}

func runCold(b *bench) error {
	if b.cli == "" || b.calproc == "" {
		return errors.New("the cold workload needs --cli and --calproc, the paths of built cinnamon and calproc binaries")
	}
	jobs, err := coldJobs(b.seed)
	if err != nil {
		return err
	}
	bt, err := b.setUp(jobs, nil)
	if err != nil {
		return err
	}
	refs, err := references(bt, jobs)
	if err != nil {
		return err
	}

	deadline := time.Now().Add(b.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		ref := refs[j.String()]
		sess := i + 1
		args := append([]string{"-backend=" + j.backend}, j.target.args...)
		args = append(args, "@"+j.tool)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(b.cli, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		end := time.Now()
		b.attempted++
		if err != nil {
			b.fail(false, "session %s: %v: %s", j, err, stderr.String())
			continue
		}
		cal, err := calibrateProcess(b.calproc)
		if err != nil {
			return err
		}
		b.record(i%len(jobs), end.Sub(start), cal)
		b.insts += ref.insts
		b.fires += ref.fires
		if stdout.String() != ref.out {
			b.fail(true, "session %s: CLI output differs from the reference", j)
		}
		if b.tr.on {
			b.tr.add("process", 0, sess, start, end)
			if err := b.replay(sess, j, ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// calibrateProcess times one run of the calibration process (see
// calproc), from start to exit.
func calibrateProcess(path string) (time.Duration, error) {
	cmd := exec.Command(path)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	d := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("calibration process: %v: %s", err, out)
	}
	return d, nil
}

// replay repeats a cold session in process, from source, with a span
// around every layer the CLI process passes through.
func (b *bench) replay(sess int, j job, ref outcome) error {
	root := b.tr.begin("replay", 0, sess)
	defer b.tr.end(root)
	tool, err := compileTool(b.tr, root, sess, j.tool)
	if err != nil {
		return err
	}
	prog, err := loadTarget(b.tr, root, sess, j.target)
	if err != nil {
		return err
	}
	o, err := session(b.tr, root, sess, tool, prog, j, artifacts.New(artifacts.Options{}))
	if err != nil {
		b.fail(false, "replay %s: %v", j, err)
		return nil
	}
	b.cacheHits += o.hits
	b.cacheMisses += o.misses
	if !o.same(ref, true) {
		b.fail(true, "replay %s: outcome differs from the reference", j)
	}
	return nil
}
