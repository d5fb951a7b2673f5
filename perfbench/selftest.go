package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// selftestMain checks the benchmark's own machinery on shrunken instances
// of every workload: the digest repeats across runs and across GOMAXPROCS 1
// and 2, the traced drive reproduces the untraced digest, the golden
// comparison catches a perturbed seed, goldens survive a write and read,
// and the CPU profile parses.
func selftestMain() error {
	const seed = recordedSeed
	dir := filepath.Join(outDir, "selftest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, w := range workloads {
		base, err := doRound(w, seed, true, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if base.badOutputs > 0 {
			return fmt.Errorf("%s: %d operations produced wrong output", w.name, base.badOutputs)
		}
		for _, p := range []int{1, 2, procs} {
			runtime.GOMAXPROCS(p)
			r, err := doRound(w, seed, true, nil, 0)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if first, _ := r.digest.diff(base.digest, r.points); first != "" {
				return fmt.Errorf("%s: digest differs between runs at GOMAXPROCS=%d: %s", w.name, p, first)
			}
		}
		runtime.GOMAXPROCS(procs)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		tr := newTracer("selftest")
		traced, err := doRound(w, seed, true, tr, 0)
		pprof.StopCPUProfile()
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		if first, _ := traced.digest.diff(base.digest, traced.points); first != "" {
			return fmt.Errorf("%s: traced digest differs from untraced: %s", w.name, first)
		}
		if len(tr.spans) < 3 {
			return fmt.Errorf("%s: traced round recorded %d spans", w.name, len(tr.spans))
		}
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if total := sumShares(p.shares()); len(p.stacks) > 0 && math.Abs(total-1) > 1e-9 {
			return fmt.Errorf("%s: CPU shares sum to %g", w.name, total)
		}

		perturbed, err := doRound(w, seed+1, true, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		first, failed := perturbed.digest.diff(base.digest, perturbed.points)
		if first == "" || failed == 0 {
			return fmt.Errorf("%s: golden check missed a perturbed seed", w.name)
		}

		if err := storeGolden(dir, w.name, seed, base.digest); err != nil {
			return err
		}
		g, err := loadGolden(dir, w.name, seed)
		if err != nil {
			return err
		}
		if first, _ := base.digest.diff(g, base.points); first != "" || g.sum() != base.digest.sum() {
			return fmt.Errorf("%s: golden changed on a write and read: %s", w.name, first)
		}
		fmt.Printf("%s: digest %s stable at GOMAXPROCS 1/2/%d, traced matches, %d spans, %d profile samples; seed %d fails %d/%d ops, first at %s\n",
			w.name, base.digest.sum(), procs, len(tr.spans), len(p.stacks), seed+1, failed, perturbed.points, first)
	}

	// The comparator's quartiles must match Python's statistics.quantiles.
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		return fmt.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// Ties count for neither side, and runs that computed different
	// outcomes do not compare at all.
	if r := compareRow(specMetric{Better: "lower", Bound: 0.25}, []float64{1, 1, 1}, []float64{1, 1, 0.5}); r.wins.Trials() != 1 {
		return fmt.Errorf("comparator counted %d pairs of which two tie; want 1", r.wins.Trials())
	}
	same := []record{{Seed: 1, Digest: "a"}}
	for _, other := range [][]record{{{Seed: 1, Digest: "b"}}, {{Seed: 2, Digest: "a"}}, {{Seed: 1, Digest: "a", Failed: 1}}, {{Seed: 1, Digest: "a", Golden: "mismatch"}}} {
		if invalid(same, other) == "" {
			return fmt.Errorf("comparator accepted %+v against %+v", other[0], same[0])
		}
	}
	if why := invalid(same, same); why != "" {
		return fmt.Errorf("comparator rejected identical runs: %s", why)
	}
	fmt.Println("selftest: ok")
	return nil
}

func sumShares(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
