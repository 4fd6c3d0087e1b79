#!/bin/sh
# Tier-1 gate: everything must pass before a change lands.
#
#   vet        static checks
#   gofmt      every tracked .go file is gofmt-clean (tracked files only,
#              so build outputs such as .bench_build/ are not scanned)
#   perfbench  the benchmark harness (perfbench/, its own module, which
#              the root ./... patterns never reach) still compiles and
#              vets against the repo's current API
#   build      every package compiles
#   race test  full suite under the race detector (the bench sweeps run
#              their (benchmark x framework) cells on a worker pool, so
#              this also exercises the parallel harness for races)
#   bench      one smoke iteration of every table/figure benchmark at a
#              reduced workload scale, plus one iteration of every
#              go-test benchmark in the tree (bench-rot guard)
#   docs       package-doc + documentation-suite gate (scripts/pkgdoc),
#              the generated CLI reference (docs/CLI.md must match the
#              flag registry byte for byte), the doc-example compile
#              gate (every fenced .cin block in the docs compiles),
#              one -stats CLI smoke run, and the probe-dispatch perf
#              gates (non-race; see internal/vm/obs_test.go and
#              translate_test.go): the fire loop with no collector vs
#              the pre-observability loop, and the enabled path (a
#              collector-attached run with a generic probe, or with a
#              promoted counter, vs the same run without a collector),
#              all timed as alternating single runs compared by median;
#              the translated VM tier vs the interpreter on the
#              probe-free hot-block workload, the action-inlining layer
#              vs the inline-ablated translated tier on opcodemix
#              (>=1.5x; promoted counters plus fusion, timed as
#              alternating whole sessions compared by median;
#              internal/bench/inline_test.go), and the lowering of
#              action bodies: case-study actions fired directly, compiled
#              vs the interpreter, loopcoverage (>=12x; register locals,
#              int64 dict maps, native counted loop and fused dict
#              bump), forwardcfi (>=12x; a numeric vector's has) and
#              shadowstack (>=10x; a bind-time constant), by the same
#              median method (internal/core/compile/actionexec_test.go),
#              and the compiled instrumentation-time walk: uncached
#              set-up of every case study on every backend on leela vs
#              the same set-up with -ablate=compile (>=2.5x; one frame
#              per command, compiled where clauses and analysis code;
#              internal/bench/walk_test.go)
#   ablate     CLI ablation smoke over one built cinnamon binary: a
#              -stats loop-coverage run on janus with every speed layer
#              on and one with -ablate=compile,translate,inline,ir-opt,cache,
#              and, on each of janus, pin and dyninst (whose probe
#              installers each lower the inline surface), a Forward CFI
#              run on victim:indirect_attack and a Shadow stack run on
#              victim:stack_smash each with and without -ablate=inline
#              and with and without -ablate=compile (their actions stay
#              unboxed only through the compile layer's bind-time
#              constants and numeric vector ops), must print identical
#              stdout and an identical first stderr line (backend,
#              insts, cycles, exit); an unknown layer (-ablate=jit) must
#              be rejected
#   governor   one reduced-scale run of the overhead-budget experiment
#              (experiments -exp=governor): the governor must bring
#              three action-heavy tools under 5% and 1% budgets
#   fleet      monitoring smoke (scripts/fleetsmoke) over the real
#              binaries: a looping `cinnamon -listen` run, served as
#              session s1 of a fleet of one, scraped over real HTTP
#              (/healthz, a session-labelled /metrics series, one SSE
#              fire event, /sessions/s1/stats, /sessions/s1/governor),
#              then killed cleanly; and cinnamond booted on an ephemeral
#              port, 8 sessions submitted over the real POST /sessions
#              API, /metrics scraped and the cinnamon_fleet_* rollups
#              asserted exactly equal to the per-session sums, then
#              SIGTERM and a clean drain; plus the fleet perf gates
#              (internal/bench/fleet_test.go): 32
#              live sessions must sustain millions of probe fires/sec
#              with the /metrics p99 under budget, and a session
#              joining a warm fleet (primed artifact cache) must start
#              >=5x faster than a cold one
#   conform    differential conformance sweep (cmd/conformance): 200
#              seeded generated (program, victim) pairs cross-checked
#              over all three backends, each with every single-layer
#              ablation and with every layer off; any
#              divergence the oracle cannot classify as one of the
#              paper's legal divergences fails the gate. The checked-in
#              regression corpus replays inside `go test` above.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (tracked .go files)"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
	echo "not gofmt-clean:"
	echo "$unformatted"
	exit 1
fi

echo "==> perfbench compile gate (go vet, its own module)"
(cd perfbench && GOWORK=off go vet ./...)

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench smoke (CINNAMON_SCALE=0.1)"
CINNAMON_SCALE=0.1 go test -run '^$' -bench . -benchtime 1x .

echo "==> bench-rot smoke (all packages)"
CINNAMON_SCALE=0.1 go test -run '^$' -bench . -benchtime 1x ./... >/dev/null

echo "==> docs gate"
go run ./scripts/pkgdoc .

echo "==> CLI reference gate (docs/CLI.md vs flag registries)"
go test -run 'TestCLIDocCurrent|TestFlagTableComplete|TestDaemonFlagTableComplete' -count=1 ./cmd/cinnamon/

echo "==> doc-example compile gate (fenced .cin blocks)"
go test -run TestDocExamplesCompile -count=1 ./cinnamon/

echo "==> observability smoke (-stats -trace)"
go run ./cmd/cinnamon -backend=janus -target=victim:uaf_bug \
	-stats -trace=8 @useafterfree >/dev/null 2>&1

echo "==> disabled-path dispatch perf gate"
CINNAMON_PERF_GATE=1 go test -run TestObsDisabledDispatchOverhead -count=1 ./internal/vm/

echo "==> enabled-path dispatch perf gate (generic probe, promoted counter)"
CINNAMON_PERF_GATE=1 go test -run TestObsEnabledDispatchOverhead -count=1 ./internal/vm/

echo "==> translated-tier dispatch perf gate"
CINNAMON_PERF_GATE=1 go test -run TestTranslatedDispatchSpeedup -count=1 ./internal/vm/

echo "==> action-inlining perf gate"
CINNAMON_PERF_GATE=1 go test -run TestInlinedActionSpeedup -count=1 ./internal/bench/

echo "==> action-lowering perf gate"
CINNAMON_PERF_GATE=1 go test -run TestCaseStudyLoweringSpeedup -count=1 ./internal/core/compile/

echo "==> compiled-walk perf gate"
CINNAMON_PERF_GATE=1 go test -run TestCompiledWalkSpeedup -count=1 ./internal/bench/

echo "==> placement-IR perf gate"
CINNAMON_PERF_GATE=1 go test -run TestIROptDispatchSpeedup -count=1 ./internal/core/placement/

echo "==> CLI ablation smoke (-ablate: every layer off vs none)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/cinnamon" ./cmd/cinnamon
# same_run BACKEND LAYERS ARGS...: a -stats run on BACKEND with every
# layer on and one with the LAYERS ablated must agree on stdout and the
# first stderr line.
same_run() {
	backend=$1
	layers=$2
	shift 2
	"$tmp/cinnamon" -backend="$backend" -stats "$@" >"$tmp/plain.out" 2>"$tmp/plain.err"
	"$tmp/cinnamon" -backend="$backend" -stats -ablate="$layers" "$@" >"$tmp/ablated.out" 2>"$tmp/ablated.err"
	cmp "$tmp/plain.out" "$tmp/ablated.out"
	plain=$(head -n 1 "$tmp/plain.err")
	ablated=$(head -n 1 "$tmp/ablated.err")
	case $plain in
	"backend=$backend insts="*) ;;
	*)
		echo "unexpected -stats line for $*: $plain"
		exit 1
		;;
	esac
	if [ "$plain" != "$ablated" ]; then
		echo "$backend $* with -ablate=$layers differs: $ablated (want $plain)"
		exit 1
	fi
}
same_run janus compile,translate,inline,ir-opt,cache -target=victim:spin -loop=2000 @loopcoverage
for b in janus pin dyninst; do
	same_run "$b" inline -target=victim:indirect_attack @forwardcfi
	same_run "$b" inline -target=victim:stack_smash @shadowstack
	same_run "$b" compile -target=victim:indirect_attack @forwardcfi
	same_run "$b" compile -target=victim:stack_smash @shadowstack
done
if "$tmp/cinnamon" -backend=janus -target=victim:spin -ablate=jit @loopcoverage 2>/dev/null; then
	echo "-ablate=jit was accepted"
	exit 1
fi

echo "==> governor bench smoke (budget sweep)"
go run ./cmd/experiments -exp=governor -benchmark=mcf -scale=0.2 >/dev/null

echo "==> monitoring smoke (cinnamon -listen, cinnamond)"
go run ./scripts/fleetsmoke

echo "==> fleet snapshot-latency perf gate"
CINNAMON_PERF_GATE=1 go test -run TestFleetSnapshotLatencyGate -count=1 ./internal/bench/

echo "==> fleet warm-startup perf gate"
CINNAMON_PERF_GATE=1 go test -run TestFleetWarmStartupGate -count=1 ./internal/bench/

echo "==> differential conformance sweep (200 seeds)"
go run ./cmd/conformance -seeds 200 -budget 30s

echo "CI OK"
