package main

import (
	"fmt"
	"strconv"
	"strings"
)

// goldenMain rewrites the committed digests of one workload ("all" for
// every workload) for the given seeds; "a-b" names a range of seeds.
func goldenMain(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: perfbench golden <workload|all> <seed|a-b>...")
	}
	var ws []workload
	if args[0] == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(args[0])
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	var seeds []uint64
	for _, a := range args[1:] {
		lo, hi, isRange := strings.Cut(a, "-")
		first, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return err
		}
		last := first
		if isRange {
			if last, err = strconv.ParseUint(hi, 10, 64); err != nil {
				return err
			}
		}
		for s := first; s <= last; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, w := range ws {
		for _, seed := range seeds {
			r, err := doRound(w, seed, false, nil, 0)
			if err != nil {
				return err
			}
			if r.badOutputs > 0 {
				return fmt.Errorf("%s seed %d: %d operations produced wrong output", w.name, seed, r.badOutputs)
			}
			if err := storeGolden(goldenDir, w.name, seed, r.digest); err != nil {
				return err
			}
			fmt.Printf("%s seed %d: %s (%.2fs)\n", w.name, seed, r.digest.sum(), r.run())
		}
	}
	return nil
}
