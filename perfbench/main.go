// Command perfbench is the repository benchmark. It drives the Cinnamon
// toolchain through one of three workloads for a fixed time and prints a
// single JSON result line:
//
//	cold   fresh `cinnamon` CLI processes, one per session (no warm state)
//	hot    in-process instrumented runs of generated programs, warm artifacts
//	fleet  sessions submitted one at a time over HTTP to the fleet
//	       scheduler on one core, in rounds of 48, with /metrics scraped
//	       every 50 ms
//
// Inputs are made from -seed; every session's output is checked against a
// reference run on the interpreted VM tier. With -trace 1 the run records
// a span around every call into a layer (compile, assemble, cfg,
// instrument, execute, snapshot, expose), writes the spans to
// .bench_build/trace/, and reports per-layer self times instead of the
// end-to-end metrics. See README.md for the workloads and metrics.
//
// Run it through run.sh, which builds this package, the calibration
// process and the CLI first:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run repeats its set-up at least setupMinReps times and until
// setupMinTime has passed; setup_s is the fastest repetition. The host's
// speed flips between a fast and a slow state, often within a second, so
// the median follows whichever state the run happened to meet, while
// seconds of repetitions meet the fast state. On a 2-vCPU virtual machine
// the fastest of two seconds of cold set-ups still ranged from 0.053 to
// 0.099 s over twelve runs, the fastest of six seconds from 0.057 to
// 0.069 s.
const (
	setupMinReps = 5
	setupMinTime = 5 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run, shared by the workloads.
type bench struct {
	seed    int64
	seconds time.Duration
	cli     string
	calproc string
	tr      *tracer

	// setup holds the duration of each set-up repetition, in seconds.
	setup []float64
	// relative holds, per job, the end-to-end latency of each of its
	// measured sessions divided by the calibration time measured next to
	// it (see package calib).
	relative map[int][]float64
	// insts and fires are the application instructions and probe
	// firings the measured sessions performed.
	insts uint64
	fires uint64
	// cacheHits and cacheMisses count artifact-cache lookups made by the
	// measured sessions.
	cacheHits, cacheMisses uint64

	attempted, failed int
	// wrong counts sessions whose output differs from the reference.
	wrong int
}

// record adds one measured session of job j that took d, with cal the
// calibration time measured next to it.
func (b *bench) record(j int, d, cal time.Duration) {
	if b.relative == nil {
		b.relative = make(map[int][]float64)
	}
	b.relative[j] = append(b.relative[j], float64(d)/float64(cal))
}

// fail records one failed or wrong session and reports the first few.
func (b *bench) fail(wrong bool, format string, args ...any) {
	if wrong {
		b.wrong++
	} else {
		b.failed++
	}
	if b.failed+b.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

var workloads = map[string]func(*bench) error{
	"cold":  runCold,
	"hot":   runHot,
	"fleet": runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: cold, hot or fleet")
	seed := flag.Int64("seed", 1, "seed the inputs are made from")
	seconds := flag.Int("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	cli := flag.String("cli", "", "path to a built cmd/cinnamon binary (cold workload)")
	calproc := flag.String("calproc", "", "path to a built calproc binary (cold workload)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold|hot|fleet --seed N --seconds S --trace 0|1 [--cli PATH --calproc PATH]")
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		cli:     *cli,
		calproc: *calproc,
		tr:      newTracer(*trace == 1),
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no session completed")
		os.Exit(1)
	}

	var metrics map[string]metric
	if b.tr.on {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEnd()
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0 && b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd reports what a user of the workload sees, freed of the host's
// drift: each job's median and 90th-percentile relative session latency,
// the typical and the slow session, each as a geometric mean over the
// jobs, so that every job weighs the same whatever its size.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"session_p50_x": {b.jobMean(0.50), "x"},
		"session_p90_x": {b.jobMean(0.90), "x"},
		"setup_s":       {quantile(b.setup, 0), "s"},
	}
}

// jobMean returns the geometric mean over the jobs of the q-quantile of
// each job's relative session latencies.
func (b *bench) jobMean(q float64) float64 {
	logSum := 0.0
	for _, xs := range b.relative {
		logSum += math.Log(quantile(xs, q))
	}
	return math.Exp(logSum / float64(len(b.relative)))
}

// layerMetrics reports the median self time of each layer's spans plus
// the work counts of the measured sessions.
func (b *bench) layerMetrics() map[string]metric {
	self := b.tr.selfTimes()
	m := map[string]metric{
		"sessions":     {float64(b.attempted), "count"},
		"app_insts":    {float64(b.insts), "count"},
		"probe_fires":  {float64(b.fires), "count"},
		"cache_hits":   {float64(b.cacheHits), "count"},
		"cache_misses": {float64(b.cacheMisses), "count"},
	}
	for _, l := range layers {
		m[l+"_ms"] = metric{quantile(self[l], 0.50), "ms"}
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
