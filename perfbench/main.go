// Command perfbench is the repository's benchmark. It runs one named
// workload through the real stack, from outside and through public entry
// points only, for a fixed wall-clock budget, checks the seeded simulated
// outcome against a committed golden digest, and prints its metrics.
//
// Run it from the repository root:
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	.bench_build/perfbench --workload churn-joint --seed 1 --seconds 10 --trace 0
//
// or through perfbench/run.py, which builds first. With --trace 0 it prints
// the end-to-end metrics; with --trace 1 it runs the same workload again
// with spans around every call into a layer, a CPU profile and a
// steady-state micro ladder per layer, and prints the per-layer metrics.
// The line before the last is a full record (environment, digest, every
// metric); the last line is a JSON summary: correct, attempted, failed and
// the metrics BENCHMARK.json names.
//
// Other modes: "perfbench compare <parent.jsonl> <change.jsonl>" compares
// two sets of records, "perfbench selftest" checks the digest machinery on
// shrunken workloads, and "perfbench golden <workload> <seed>..." rewrites
// committed digests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// Where the benchmark reads its goldens and writes its traces, relative to
// the repository root it runs from.
const (
	goldenDir = "perfbench/golden"
	outDir    = ".bench_build"
)

// minRounds is the fewest timed rounds a run makes, however long they take,
// so every reported median has at least three samples.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run's full result: everything needed to compare it with a
// run of another commit.
type record struct {
	Kind      string            `json:"kind"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Rounds    int               `json:"rounds"`
	Env       environment       `json:"env"`
	Digest    string            `json:"digest"`
	Golden    string            `json:"golden"`
	FirstDiff string            `json:"first_diff,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const recordKind = "perfbench-record"

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "compare":
			err = compareMain(os.Args[2:])
		case "selftest":
			err = selftestMain()
		case "golden":
			err = goldenMain(os.Args[2:])
		default:
			err = benchMain(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: --workload is required")
	os.Exit(2)
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", `workload to run, or "all" for every workload in turn`)
	seed := fs.Uint64("seed", recordedSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "wall-clock seconds to measure each workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	ws := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	names := spec.EndToEnd
	if *trace == 1 {
		names = spec.PerLayer
	}
	// With several workloads the summary names each metric <workload>.<metric>.
	sum := summary{Metrics: map[string]metric{}}
	for _, w := range ws {
		rec, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		sum.Attempted += rec.Attempted
		sum.Failed += rec.Failed
		for _, want := range names {
			m, ok := rec.Metrics[want.Name]
			if !ok || m.Unit != want.Unit {
				return fmt.Errorf("workload %s did not produce metric %s in %s", w.name, want.Name, want.Unit)
			}
			key := want.Name
			if len(ws) > 1 {
				key = w.name + "." + key
			}
			sum.Metrics[key] = m
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checker compares each round's digest with the reference one: the
// committed golden when one exists for the seed, otherwise the run's first
// round.
type checker struct {
	ref       digest
	got       string // the first round's digest sum
	golden    string // "match", "mismatch" or "absent"
	firstDiff string
	attempted int
	failed    int
}

func newChecker(workload string, seed uint64) (*checker, error) {
	ref, err := loadGolden(goldenDir, workload, seed)
	if err != nil {
		return nil, err
	}
	c := &checker{ref: ref, golden: "match"}
	if ref == nil {
		c.golden = "absent"
	}
	return c, nil
}

func (c *checker) check(r round) {
	c.attempted += r.points
	if c.got == "" {
		c.got = r.digest.sum()
	}
	failed := r.badOutputs
	if c.ref == nil {
		c.ref = r.digest
	} else if first, n := r.digest.diff(c.ref, r.points); first != "" {
		if c.firstDiff == "" {
			c.firstDiff = first
			fmt.Fprintln(os.Stderr, "perfbench: digest diverged at", first)
		}
		if c.golden == "match" {
			c.golden = "mismatch"
		}
		failed += n
	}
	c.failed += min(failed, r.points)
}

func doRound(w workload, seed uint64, small bool, tr *tracer, parent int) (round, error) {
	if w.live != nil {
		return liveRound(w.live(seed, small), tr, parent)
	}
	runner, sw := w.sweep(seed, small)
	return sweepRound(runner, sw, tr, parent)
}

func runWorkload(w workload, seed uint64, seconds float64, trace bool) (*record, error) {
	chk, err := newChecker(w.name, seed)
	if err != nil {
		return nil, err
	}
	rec := &record{Kind: recordKind, Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds,
		Env: readEnvironment(), Metrics: map[string]metric{}}
	if trace {
		err = tracedRun(w, seed, seconds, chk, rec)
	} else {
		err = untracedRun(w, seed, seconds, chk, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Golden, rec.FirstDiff = chk.golden, chk.firstDiff
	rec.Digest = chk.got
	rec.Attempted, rec.Failed = chk.attempted, chk.failed
	rec.Metrics["failed_frac"] = metric{float64(chk.failed) / float64(chk.attempted), "ratio"}
	return rec, nil
}

// untracedRun measures rounds in a closed loop until the budget is spent
// and reports the end-to-end metrics as medians over rounds.
func untracedRun(w workload, seed uint64, seconds float64, chk *checker, rec *record) error {
	var rounds []round
	began := time.Now()
	for len(rounds) < minRounds || since(began) < seconds {
		r, err := doRound(w, seed, false, nil, 0)
		if err != nil {
			return err
		}
		chk.check(r)
		rounds = append(rounds, r)
	}
	rec.Rounds = len(rounds)
	pick := func(f func(round) float64) float64 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		return median(vals)
	}
	opsPerS := pick(func(r round) float64 { return float64(r.ops) / r.work })
	rec.Metrics["setup_s"] = metric{pick(func(r round) float64 { return r.setup }), "s"}
	rec.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
	rec.Metrics["run_s"] = metric{pick(round.run), "s"}
	rec.Metrics["cpu_s"] = metric{pick(func(r round) float64 { return r.cpu }), "s"}
	rec.Metrics["heap_live_mb"] = metric{pick(func(r round) float64 { return r.heapLive }), "MB"}
	rec.Metrics["peak_rss_mb"] = metric{pick(func(r round) float64 { return r.peakRSS }), "MB"}
	if w.live == nil {
		rec.Metrics["trials_per_s"] = metric{opsPerS, "1/s"}
		return nil
	}
	rec.Metrics["missions_per_s"] = metric{opsPerS, "1/s"}
	rdErr, rrErr, err := referenceErrors(w.live(seed, false), rounds[0])
	if err != nil {
		return err
	}
	rec.Metrics["rd_err"] = metric{rdErr, "ratio"}
	rec.Metrics["rr_err"] = metric{rrErr, "ratio"}
	return nil
}

// tracedRun makes one untraced round as the reference (it also warms the
// process up), then alternates traced and untraced rounds until the budget
// is spent. Only the traced rounds run under spans and the CPU profile; the
// untraced ones give the tracing overhead. The layer ladder runs last.
func tracedRun(w workload, seed uint64, seconds float64, chk *checker, rec *record) error {
	first, err := doRound(w, seed, false, nil, 0)
	if err != nil {
		return err
	}
	chk.check(first)

	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano()))
	root := tr.start("workload "+w.name, 0)
	var (
		traced, untraced []round
		prof             cpuProfile
		before, after    runtimeSnap
	)
	began := time.Now()
	for len(traced) < 1 || since(began) < seconds {
		r, err := doRound(w, seed, false, nil, 0)
		if err != nil {
			return err
		}
		chk.check(r)
		untraced = append(untraced, r)

		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		b := readRuntime()
		r, err = doRound(w, seed, false, tr, root)
		a := readRuntime()
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		chk.check(r)
		traced = append(traced, r)
		before, after = before.plus(b), after.plus(a)
		p, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			return fmt.Errorf("reading CPU profile: %w", err)
		}
		prof.stacks, prof.nanos = append(prof.stacks, p.stacks...), append(prof.nanos, p.nanos...)
	}
	rec.Rounds = 1 + len(untraced) + len(traced)

	layerMetrics(rec.Metrics, tr, traced, before, after, prof)
	runs := func(rs []round) float64 {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = r.run()
		}
		return median(vals)
	}
	base := runs(untraced)
	rec.Metrics["trace.overhead_frac"] = metric{(runs(traced) - base) / base, "ratio"}

	if err := ladder(rec.Metrics, tr, root); err != nil {
		return err
	}
	tr.end(root)
	return tr.write(filepath.Join(outDir, "trace", w.name+"-seed"+strconv.FormatUint(seed, 10)+".json"))
}

// environment is the machine and build a record was measured on.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha"`
}

func readEnvironment() environment {
	return environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceHash(),
	}
}
