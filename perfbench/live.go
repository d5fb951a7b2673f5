package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"selfemerge"
	"selfemerge/internal/protocol"
	"selfemerge/internal/scenario"
	"selfemerge/internal/stats"
)

// counters are the exact event counts a live network exports after a round.
type counters struct {
	sent, delivered, dropped   int
	deaths, joins              int
	retries, recovered, dups   uint64
	epochs, idleSkips, mallocs uint64
}

// round is the outcome of one timed unit of work: one network booted and
// driven (live), or one sweep run (mc-fig7).
type round struct {
	setup, work, cpu float64 // wall s of setup and of the rest; CPU s of both
	heapLive         float64 // MB live after a forced GC right after setup; for a sweep, its peak live heap
	peakRSS          float64 // MB resident at the round's peak
	ops              int     // missions or Monte Carlo trials
	points           int     // operations the digest checks: missions or sweep points
	badOutputs       int     // operations whose output was wrong, golden aside
	digest           digest
	live             scenario.Result
	counters         counters
}

func (r round) run() float64 { return r.setup + r.work }

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// startRound collects garbage, returns the freed memory to the OS and
// resets the kernel's peak-RSS mark, so that a round's peak is its own and
// does not depend on how earlier rounds left the heap. Where the mark cannot
// be reset, peakRSSMB reads the process's peak instead.
func startRound() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size in MB since the last reset.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// liveRound boots cfg's network, drives its missions and scores them. With
// a tracer it drives through Send/RunFor/RunUntil/Settle itself, mirroring
// scenario.Drive, and records a span around every call.
func liveRound(cfg scenario.Config, tr *tracer, parent int) (round, error) {
	var r round
	startRound()
	root := tr.start("round", parent)
	defer tr.end(root)

	cpu0, t0 := cpuSeconds(), time.Now()
	sp := tr.start("scenario.Setup", root)
	cfg, net, err := scenario.Setup(cfg)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	r.setup = since(t0)
	cpuSetup := cpuSeconds() - cpu0

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = float64(ms.HeapAlloc) / (1 << 20)

	cpu1, t1 := cpuSeconds(), time.Now()
	var msgs []*selfemerge.Message
	if tr == nil {
		msgs, err = scenario.Drive(cfg, net)
	} else {
		msgs, err = driveTraced(cfg, net, tr, root)
	}
	if err != nil {
		return r, err
	}
	sp = tr.start("scenario.Score", root)
	r.live = scenario.Score(cfg, net, msgs)
	tr.end(sp)
	r.work = since(t1)
	r.cpu = cpuSetup + cpuSeconds() - cpu1

	r.peakRSS = peakRSSMB()
	r.ops, r.points = len(msgs), len(msgs)
	r.counters = readCounters(net)
	r.digest, r.badOutputs = liveDigest(cfg, net, msgs, r.live, r.counters)
	return r, nil
}

// driveTraced is scenario.Drive with a span around each call into the
// network. The traced run must reproduce the untraced digest, which checks
// that the two drive the same missions.
func driveTraced(cfg scenario.Config, net *selfemerge.Network, tr *tracer, parent int) ([]*selfemerge.Message, error) {
	drive := tr.start("scenario.Drive", parent)
	defer tr.end(drive)
	rng := stats.NewRNG(cfg.Seed ^ 0x5ce7a110_c0ffee)
	var gap time.Duration
	if cfg.Missions > 1 {
		gap = cfg.Stagger / time.Duration(cfg.Missions)
	}
	msgs := make([]*selfemerge.Message, cfg.Missions)
	for i := range msgs {
		var id protocol.MissionID
		for w := 0; w < 2; w++ {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				id[w*8+b] = byte(v >> (8 * b))
			}
		}
		sp := tr.start("selfemerge.Send", drive)
		msg, err := net.Send(payload(i), cfg.Emerging,
			selfemerge.WithPlan(cfg.Plan), selfemerge.WithMissionID(id))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("dispatching mission %d: %w", i, err)
		}
		msgs[i] = msg
		if gap > 0 && i < cfg.Missions-1 {
			sp := tr.start("selfemerge.RunFor", drive)
			net.RunFor(gap)
			tr.end(sp)
		}
	}
	sp := tr.start("selfemerge.RunUntil", drive)
	net.RunUntil(msgs[len(msgs)-1].Release().Add(time.Minute))
	tr.end(sp)
	sp = tr.start("selfemerge.Settle", drive)
	net.Settle()
	tr.end(sp)
	return msgs, nil
}

// payload is the plaintext scenario.Drive sends as mission i.
func payload(i int) []byte { return []byte(fmt.Sprintf("mission-%d", i)) }

func readCounters(net *selfemerge.Network) counters {
	var c counters
	c.sent, c.delivered, c.dropped = net.FabricStats()
	c.deaths, c.joins = net.ChurnEvents()
	res := net.ResilienceStats()
	c.retries, c.recovered, c.dups = res.Retries, res.Recovered, res.Duplicates
	c.epochs, c.idleSkips, c.mallocs = net.LoopStats()
	return c
}

// missionsPerBlock is how many missions one digest block hashes together.
const missionsPerBlock = 10

// liveDigest records every simulated statistic of a live round: each
// mission's delivery, release and emergence instants, the score, and the
// fabric, churn, retry and loop counters. It also counts missions whose
// output is wrong outright: a delivered plaintext that differs from the one
// sent.
func liveDigest(cfg scenario.Config, net *selfemerge.Network, msgs []*selfemerge.Message, res scenario.Result, c counters) (digest, int) {
	var d digest
	bad := 0
	hold := cfg.Plan.HoldPeriod(cfg.Emerging)
	var block []string
	for i, msg := range msgs {
		emerged, recovered := int64(-1), int64(-1)
		plain, at, ok := net.Emerged(msg)
		if ok {
			emerged = at.UnixNano()
			if !bytes.Equal(plain, payload(i)) {
				bad++
			}
		}
		if at, ok := net.AdversaryRecovered(msg); ok {
			recovered = at.UnixNano()
		}
		released := recovered >= 0 && recovered < msg.Start().Add(hold).UnixNano()
		block = append(block, fmt.Sprintf("%d e=%d a=%d r=%t", i, emerged, recovered, released))
		if len(block) == missionsPerBlock || i == len(msgs)-1 {
			d.block(fmt.Sprintf("missions[%d:%d]", i+1-len(block), i+1), len(block), block)
			block = block[:0]
		}
	}
	d.scalar("score.released", res.Released)
	d.scalar("score.delivered", res.Delivered)
	d.scalar("score.succeeded", res.Succeeded)
	d.scalar("fabric.sent", c.sent)
	d.scalar("fabric.delivered", c.delivered)
	d.scalar("fabric.dropped", c.dropped)
	d.scalar("churn.deaths", c.deaths)
	d.scalar("churn.joins", c.joins)
	d.scalar("retry.retries", c.retries)
	d.scalar("retry.recovered", c.recovered)
	d.scalar("retry.duplicates", c.dups)
	d.scalar("loop.epochs", c.epochs)
	d.scalar("loop.idle_skips", c.idleSkips)
	d.scalar("loop.merge_allocs", c.mallocs)
	d.scalar("clock.now", net.Now().UnixNano())
	return d, bad
}
