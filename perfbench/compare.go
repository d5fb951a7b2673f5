package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"selfemerge/internal/stats"
)

// readRecords returns the untraced records in a file of benchmark output,
// in file order. Lines that are not records are skipped, so a file can be
// the concatenated standard output of many runs.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if json.Unmarshal([]byte(line), &r) != nil || r.Kind != recordKind || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// row is one workload × metric line of a comparison.
type row struct {
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	worse          float64 // relative change of the median, positive when worse
	wins           stats.Proportion
	pairDiff       stats.Summary
	verdict        string
}

// compareRow applies the decision rule: a gain needs the change to win at
// least nine tenths of the pairs (ties count for neither) and the medians to
// differ by more than the parent's own interquartile range; a metric whose
// parent spread exceeds its bound is unresolved unless every change run
// beats every parent run; otherwise a median worse by more than the bound
// is worse, and anything else unchanged.
func compareRow(m specMetric, parent, change []float64) row {
	var r row
	r.pMed, r.cMed = median(parent), median(change)
	r.pQ1, r.pQ3 = quartiles(parent)
	r.cQ1, r.cQ3 = quartiles(change)
	sign := 1.0 // +1 when a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	better := func(c, p float64) bool { return sign*(c-p) < 0 }
	r.worse = sign * (r.cMed - r.pMed) / r.pMed
	for i := 0; i < min(len(parent), len(change)); i++ {
		if change[i] != parent[i] {
			r.wins.Add(better(change[i], parent[i]))
		}
		r.pairDiff.Add(sign * (change[i] - parent[i]) / parent[i])
	}
	allBetter := len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := (r.pQ3 - r.pQ1) / r.pMed
	switch {
	case r.wins.Trials() > 0 && float64(r.wins.Successes()) >= 0.9*float64(r.wins.Trials()) &&
		better(r.cMed, r.pMed) && math.Abs(r.cMed-r.pMed) > r.pQ3-r.pQ1:
		r.verdict = "improved"
	case spread > m.Bound && !allBetter:
		r.verdict = "unresolved"
	case r.worse > m.Bound:
		r.verdict = "worse"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// invalid returns why a workload's timings cannot be compared, or "" when
// they can. Timings compare only runs that computed the same thing: the
// i-th parent and change records must share their seed and digest, no
// record may disagree with a committed golden, and the change may fail no
// more operations than the parent.
func invalid(parent, change []record) string {
	if len(parent) != len(change) {
		return fmt.Sprintf("%d parent records but %d change records", len(parent), len(change))
	}
	failedP, failedC := 0, 0
	for i := range parent {
		p, c := parent[i], change[i]
		switch {
		case p.Seed != c.Seed:
			return fmt.Sprintf("pair %d ran seed %d (parent) and %d (change)", i, p.Seed, c.Seed)
		case p.Golden == "mismatch" || c.Golden == "mismatch":
			return fmt.Sprintf("pair %d (seed %d) disagrees with the golden (parent %s, change %s)", i, p.Seed, p.Golden, c.Golden)
		case p.Digest != c.Digest:
			return fmt.Sprintf("pair %d (seed %d) digests differ: parent %s, change %s", i, p.Seed, p.Digest, c.Digest)
		}
		failedP += p.Failed
		failedC += c.Failed
	}
	if failedC > failedP {
		return fmt.Sprintf("change failed %d operations, parent %d", failedC, failedP)
	}
	return ""
}

// compareMain compares the records of a parent and a change, made in
// alternating-order pairs, one row per workload and end-to-end metric. A
// workload whose runs did not compute the same outcomes gets one invalid
// row instead of timing verdicts, and makes the comparison fail.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <parent.jsonl> <change.jsonl>")
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	parent, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-13s %-5s %30s %30s %8s %10s %18s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "worse", "pair wins", "pair worse ±95%", "verdict")
	rows := 0
	verdicts := map[string]int{}
	for _, w := range workloads {
		ps, cs := parent[w.name], change[w.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		if why := invalid(ps, cs); why != "" {
			fmt.Printf("%-15s invalid: %s\n", w.name, why)
			rows++
			verdicts["invalid"]++
			continue
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			r := compareRow(m, pv, cv)
			fmt.Printf("%-15s %-13s %-5s %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %+7.2f%% %4d/%-5d %+8.2f%% ±%6.2f%%  %s\n",
				w.name, m.Name, m.Unit, r.pMed, r.pQ1, r.pQ3, r.cMed, r.cQ1, r.cQ3, 100*r.worse,
				r.wins.Successes(), r.wins.Trials(), 100*r.pairDiff.Mean(), 100*r.pairDiff.CI95(), r.verdict)
			rows++
			verdicts[r.verdict]++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has records in both files")
	}
	fmt.Printf("rows: %d; improved %d, unchanged %d, worse %d, unresolved %d, invalid %d\n",
		rows, verdicts["improved"], verdicts["unchanged"], verdicts["worse"], verdicts["unresolved"], verdicts["invalid"])
	if verdicts["invalid"] > 0 {
		return fmt.Errorf("%d workloads ran different outcomes in the two sets", verdicts["invalid"])
	}
	return nil
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
