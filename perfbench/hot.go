package main

import (
	"math/rand"
	"time"

	"repro/internal/core/artifacts"
	"repro/perfbench/calib"
)

// The hot workload: a long-lived process instruments and runs programs
// over and over. Tools, programs and instrumentation templates are built
// once in set-up and served warm from the artifact cache, so a session is
// dominated by execution — base instructions, probe dispatch and action
// bodies — plus the monitoring tail (snapshot and exposition). Sessions
// run one after another (a closed loop with one client).

// hotInsts is the uninstrumented size of every hot program.
const hotInsts = 100_000

// hotJobs draws the hot job list from the seed: every (tool, backend)
// pair on one program of each recoverable suite shape, each program
// generated from its own seed drawn from the benchmark's and sized to
// hotInsts. Every pair meets every shape, so the seed changes the
// programs but not the mix of shapes a run measures.
func hotJobs(seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []job
	for _, p := range toolBackends() {
		for _, shape := range recoverableSuite() {
			genSeed := rng.Int63n(1 << 31)
			tg, err := sized(func(scale float64) target { return generatedTarget(shape, genSeed, scale) }, hotInsts)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{tool: p[0], backend: p[1], target: tg})
		}
	}
	rng.Shuffle(len(jobs), func(a, c int) { jobs[a], jobs[c] = jobs[c], jobs[a] })
	return jobs, nil
}

func runHot(b *bench) error {
	jobs, err := hotJobs(b.seed)
	if err != nil {
		return err
	}
	var cache *artifacts.Cache
	bt, err := b.setUp(jobs, func() *artifacts.Cache {
		// Room for every job's template: the default bound is smaller
		// than the job list, and a cyclic walk over more templates than
		// an LRU store holds would miss on every session.
		cache = artifacts.New(artifacts.Options{TemplateCap: len(jobs)})
		return cache
	})
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
		sess := i + 1
		root := b.tr.begin("session", 0, sess)
		start := time.Now()
		o, err := session(b.tr, root, sess, bt.tools[j.tool], bt.progs[j.target.key], j, cache)
		end := time.Now()
		b.tr.end(root)
		b.attempted++
		if err != nil {
			b.fail(false, "session %s: %v", j, err)
			continue
		}
		b.record(i%len(jobs), end.Sub(start), calib.Loop())
		b.insts += o.insts
		b.fires += o.fires
		b.cacheHits += o.hits
		b.cacheMisses += o.misses
		if !o.same(refs[j.String()], true) {
			b.fail(true, "session %s: outcome differs from the reference", j)
		}
	}
	return nil
}
