package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"selfemerge/internal/experiment"
)

// tracedMC is the Monte Carlo estimator with a span around each point.
type tracedMC struct {
	experiment.MonteCarlo
	tr     *tracer
	parent int
}

func (t tracedMC) Estimate(pt experiment.Point) (experiment.Result, error) {
	sp := t.tr.start("experiment.MonteCarlo.Estimate", t.parent)
	defer t.tr.end(sp)
	return t.MonteCarlo.Estimate(pt)
}

// heapWatch tracks the largest live heap the garbage collector marks while
// it is on. A finalizer that re-arms itself runs after every GC cycle and
// reads /gc/heap/live:bytes, so the sweep's working set is sampled at each
// GC end without a polling goroutine.
type heapWatch struct {
	on   atomic.Bool
	peak atomic.Uint64
}

// gcSentinel is large enough to escape the tiny allocator, whose objects
// may never be finalized.
type gcSentinel struct{ _ [32]byte }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.on.Store(true)
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := w.peak.Load(); v > old && !w.peak.CompareAndSwap(old, v); old = w.peak.Load() {
	}
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if w.on.Load() {
			w.sample()
			w.arm()
		}
	})
}

// stop ends the watch and returns the peak in MB, counting the heap the
// last cycle marked.
func (w *heapWatch) stop() float64 {
	w.sample()
	w.on.Store(false)
	return float64(w.peak.Load()) / (1 << 20)
}

// sweepRound validates the sweep (its set-up: every point's plan is built)
// and runs it.
func sweepRound(runner experiment.Runner, sw experiment.Sweep, tr *tracer, parent int) (round, error) {
	var r round
	startRound()
	root := tr.start("round", parent)
	defer tr.end(root)
	mc := runner.Estimator.(experiment.MonteCarlo)
	if tr != nil {
		runner.Estimator = tracedMC{MonteCarlo: mc, tr: tr, parent: root}
	}

	cpu0, t0 := cpuSeconds(), time.Now()
	sp := tr.start("experiment.Runner.Validate", root)
	err := runner.Validate(sw)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	r.setup = since(t0)
	cpuSetup := cpuSeconds() - cpu0

	runtime.GC()
	heap := watchHeap()

	cpu1, t1 := cpuSeconds(), time.Now()
	sp = tr.start("experiment.Runner.Run", root)
	rs, err := runner.Run(sw)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	r.work = since(t1)
	r.heapLive = heap.stop()
	r.cpu = cpuSetup + cpuSeconds() - cpu1
	r.peakRSS = peakRSSMB()

	for _, res := range rs.Results {
		r.ops += res.Samples
		if res.Samples != mc.Trials || res.Released > res.Samples || res.Delivered > res.Samples || res.Succeeded > res.Delivered {
			r.badOutputs++
		}
		r.digest = append(r.digest, group{
			Name: fmt.Sprintf("%s/p=%g", res.Point.Series, res.Point.X),
			Value: fmt.Sprintf("rel=%d del=%d ok=%d Rr=%.6g Rd=%.6g R=%.6g",
				res.Released, res.Delivered, res.Succeeded, res.Rr, res.Rd, res.R),
			Ops: 1,
		})
	}
	r.points = len(rs.Results)
	return r, nil
}
