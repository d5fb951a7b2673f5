package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"

	"selfemerge/internal/scenario"
)

// benchSpec is the part of BENCHMARK.json the program reads: which metrics
// the summary line carries, with their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vals, n=4) does (its default exclusive method), so
// the comparator's spreads match ones computed with Python.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// referenceErrors returns |live Rd - MC Rd| and |live Rr - MC Rr| for one
// live round, against the matched Monte Carlo references of its point.
func referenceErrors(cfg scenario.Config, r round) (rdErr, rrErr float64, err error) {
	relRef, delRef := cfg.References()
	rel, err := relRef.Estimate()
	if err != nil {
		return 0, 0, err
	}
	del := rel
	if !cfg.Drop {
		if del, err = delRef.Estimate(); err != nil {
			return 0, 0, err
		}
	}
	return math.Abs(r.live.Rd() - del.Rd()), math.Abs(r.live.Rr() - rel.Rr()), nil
}

// runtimeSnap is the Go runtime's cumulative accounting at one instant.
type runtimeSnap struct {
	gcCycles        uint32
	forcedGCs       uint32
	allocBytes      uint64
	allocs          uint64
	gcCPU, totalCPU float64
}

// plus sums two snapshots, so deltas over several disjoint intervals add up.
func (s runtimeSnap) plus(o runtimeSnap) runtimeSnap {
	return runtimeSnap{
		gcCycles:   s.gcCycles + o.gcCycles,
		forcedGCs:  s.forcedGCs + o.forcedGCs,
		allocBytes: s.allocBytes + o.allocBytes,
		allocs:     s.allocs + o.allocs,
		gcCPU:      s.gcCPU + o.gcCPU,
		totalCPU:   s.totalCPU + o.totalCPU,
	}
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeSnap{
		gcCycles:   ms.NumGC,
		forcedGCs:  ms.NumForcedGC,
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// percentile returns the nearest-rank q-percentile of vals.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// layerMetrics derives the per-layer metrics of the traced rounds from
// their spans, the counters the layers export, the runtime's accounting
// and the CPU profile. A layer the workload bypasses reads zero.
func layerMetrics(m map[string]metric, tr *tracer, rounds []round, before, after runtimeSnap, p cpuProfile) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	scaled := func(vals []float64, k float64) []float64 {
		for i := range vals {
			vals[i] *= k
		}
		return vals
	}

	send := scaled(tr.durations("selfemerge.Send"), 1e6)
	set("selfemerge.send_us_p50", median(send), "us")
	set("selfemerge.send_us_p99", percentile(send, 0.99), "us")
	step := scaled(tr.durations("selfemerge.RunFor"), 1e3)
	set("selfemerge.step_ms_p50", median(step), "ms")
	set("selfemerge.step_ms_p99", percentile(step, 0.99), "ms")
	set("selfemerge.settle_s", median(tr.durations("selfemerge.Settle")), "s")
	point := scaled(tr.durations("experiment.MonteCarlo.Estimate"), 1e3)
	set("experiment.point_ms_p50", median(point), "ms")
	set("experiment.point_ms_p99", percentile(point, 0.99), "ms")

	// Counters are exact and identical in every round; read the first.
	r := rounds[0]
	c := r.counters
	missions := 0
	if r.live.Missions > 0 {
		missions = r.ops
	}
	perMission := func(v float64) float64 {
		if missions == 0 {
			return 0
		}
		return v / float64(missions)
	}
	set("lockstep.epochs", float64(c.epochs), "count")
	set("lockstep.idle_skips", float64(c.idleSkips), "count")
	set("simnet.sent", float64(c.sent), "count")
	set("simnet.delivered", float64(c.delivered), "count")
	set("simnet.dropped", float64(c.dropped), "count")
	set("simnet.merge_allocs", float64(c.mallocs), "count")
	set("simnet.msgs_per_mission", perMission(float64(c.sent)), "count")
	works := make([]float64, len(rounds))
	for i, r := range rounds {
		works[i] = r.work
	}
	set("simnet.msgs_per_s", float64(c.sent)/median(works), "1/s")
	set("dht.retries", float64(c.retries), "count")
	set("dht.recovered", float64(c.recovered), "count")
	set("dht.duplicates", float64(c.dups), "count")
	yield := 0.0
	if c.retries > 0 {
		yield = float64(c.recovered) / float64(c.retries)
	}
	set("dht.retry_yield", yield, "ratio")
	set("churn.deaths", float64(c.deaths), "count")
	set("churn.joins", float64(c.joins), "count")

	n := float64(len(rounds))
	// The rounds' own forced collections (before set-up and before reading
	// the live heap) are not counted as cycles, but their CPU is in gc_cpu_frac.
	set("runtime.gc_cycles", float64((after.gcCycles-before.gcCycles)-(after.forcedGCs-before.forcedGCs))/n, "count")
	set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU), "ratio")
	set("runtime.alloc_mb", float64(after.allocBytes-before.allocBytes)/n/(1<<20), "MB")
	set("runtime.allocs_per_mission", perMission(float64(after.allocs-before.allocs)/n), "count")

	shares := p.shares()
	for _, layer := range []string{"selfemerge", "sim", "simnet", "dht", "protocol", "crypto", "churn", "fault", "mc", "stats", "runtime", "other"} {
		set("cpu_share."+layer, shares[layer], "ratio")
	}
	set("cpu_cum.append_closest", p.cumShare("dht.(*Table).AppendClosest"), "ratio")
}
