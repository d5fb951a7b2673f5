package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"selfemerge"
	"selfemerge/internal/core"
	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/mc"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// rungBatch is the wall time one measured batch of a rung aims at; a rung
// reports the median of rungBatches batches.
const (
	rungBatch   = 40 * time.Millisecond
	rungBatches = 5
)

// rung measures op, which performs n operations, in steady state: op runs
// warm operations first (filling pools, freelists and caches) outside the
// measured region, then rungBatches batches sized to rungBatch. It returns
// the median ns/op and the fewest allocations per op of any batch.
func rung(warm int, op func(n int)) (nsPerOp, allocsPerOp float64) {
	op(warm)
	n := 1
	for {
		t := time.Now()
		op(n)
		d := time.Since(t)
		if d >= rungBatch/4 {
			n = max(1, int(float64(n)*float64(rungBatch)/float64(d)))
			break
		}
		n *= 4
	}
	ns := make([]float64, rungBatches)
	allocsPerOp = -1
	var before, after runtime.MemStats
	for b := range ns {
		runtime.ReadMemStats(&before)
		t := time.Now()
		op(n)
		ns[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&after)
		if a := float64(after.Mallocs-before.Mallocs) / float64(n); allocsPerOp < 0 || a < allocsPerOp {
			allocsPerOp = a
		}
	}
	return median(ns), allocsPerOp
}

// The standing event queue of a running churn-joint network, measured by
// sampling sim.Simulator.Pending() after every stagger step of seeds 1-3
// (750 samples; faulty-retry gives the same): median depth 1543, range
// 1003-2004. Its events are periodic per-node timers due 8.9 min (p10),
// 48 min (p50) and 3.6 h (p90) ahead, almost all on the third wheel level.
// standingQueue reproduces that depth and horizon spread.
const (
	pendingDepth   = 1543
	standingMinDue = 8 * time.Minute
	standingMaxDue = 270 * time.Minute
)

// standingQueue fills s with pendingDepth periodic timers whose periods are
// log-uniform between standingMinDue and standingMaxDue; each re-arms when
// it fires, so the depth holds however far a rung advances simulated time.
func standingQueue(s *sim.Simulator) {
	rng := stats.NewRNG(19)
	var rearm func(any)
	rearm = func(period any) { s.ScheduleArg(*period.(*time.Duration), rearm, period) }
	ratio := math.Log(float64(standingMaxDue) / float64(standingMinDue))
	for i := 0; i < pendingDepth; i++ {
		period := time.Duration(float64(standingMinDue) * math.Exp(ratio*rng.Float64()))
		s.ScheduleArg(time.Duration(rng.Float64()*float64(period)), rearm, &period)
	}
}

// ladder runs one steady-state micro benchmark per layer and records each
// as <layer>.<name>_ns (or _us) and <layer>.<name>_allocs, with a span
// around every rung.
func ladder(m map[string]metric, tr *tracer, parent int) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	step := func(name string, f func() error) error {
		sp := tr.start("ladder "+name, parent)
		defer tr.end(sp)
		return f()
	}
	rungs := []struct {
		name string
		f    func() error
	}{
		{"sim", func() error {
			ns, allocs := rung(1<<14, simSchedule())
			set("sim.schedule_ns", ns, "ns")
			set("sim.schedule_allocs", allocs, "count")
			ns, allocs = rung(1<<14, simCancel())
			set("sim.cancel_ns", ns, "ns")
			set("sim.cancel_allocs", allocs, "count")
			return nil
		}},
		{"simnet", func() error {
			ns, allocs := rung(1<<14, simnetSend())
			set("simnet.send_ns", ns, "ns")
			set("simnet.send_allocs", allocs, "count")
			return nil
		}},
		{"dht", func() error {
			for _, pop := range []int{1000, 20000} {
				ns, allocs := rung(1<<12, tableClosest(pop))
				set(fmt.Sprintf("dht.closest_ns.n%d", pop), ns, "ns")
				set(fmt.Sprintf("dht.closest_allocs.n%d", pop), allocs, "count")
			}
			encode, decode, err := wireCodec()
			if err != nil {
				return err
			}
			ns, allocs := rung(1<<12, encode)
			set("dht.encode_ns", ns, "ns")
			set("dht.encode_allocs", allocs, "count")
			ns, allocs = rung(1<<12, decode)
			set("dht.decode_ns", ns, "ns")
			set("dht.decode_allocs", allocs, "count")
			lookup, msgs, err := dhtLookup()
			if err != nil {
				return err
			}
			ns, allocs = rung(200, lookup)
			set("dht.lookup_us", ns/1e3, "us")
			set("dht.lookup_allocs", allocs, "count")
			set("dht.lookup_msgs", msgs(), "count")
			return nil
		}},
		{"protocol", func() error {
			mission, err := protocolMission()
			if err != nil {
				return err
			}
			ns, allocs := rung(300, mission)
			set("protocol.mission_us", ns/1e3, "us")
			set("protocol.mission_allocs", allocs, "count")
			build, peel, err := onionCycle()
			if err != nil {
				return err
			}
			ns, _ = rung(256, build)
			set("crypto.onion_build_us", ns/1e3, "us")
			ns, _ = rung(256, peel)
			set("crypto.onion_peel_us", ns/1e3, "us")
			return nil
		}},
		{"fault", func() error {
			judge, err := faultJudge()
			if err != nil {
				return err
			}
			ns, allocs := rung(1<<14, judge)
			set("fault.judge_ns", ns, "ns")
			set("fault.judge_allocs", allocs, "count")
			return nil
		}},
		{"mc", func() error {
			for _, c := range []struct {
				name   string
				scheme core.Scheme
			}{{"multipath", core.SchemeJoint}, {"share", core.SchemeKeyShare}} {
				trial, err := mcTrial(c.scheme)
				if err != nil {
					return err
				}
				ns, _ := rung(256, trial)
				set("mc.trial_us."+c.name, ns/1e3, "us")
			}
			return nil
		}},
	}
	for _, r := range rungs {
		if err := step(r.name, r.f); err != nil {
			return fmt.Errorf("ladder %s: %w", r.name, err)
		}
	}
	return nil
}

// simSchedule schedules events in batches of 64, up to a second ahead, and
// dispatches them by running the batch's second, on a simulator holding the
// standing queue.
func simSchedule() func(int) {
	s := sim.NewSimulator()
	standingQueue(s)
	noop := func(any) {}
	rng := stats.NewRNG(7)
	return func(n int) {
		for done := 0; done < n; {
			batch := min(64, n-done)
			for i := 0; i < batch; i++ {
				s.ScheduleArg(time.Duration(1+rng.Intn(1000))*time.Millisecond, noop, nil)
			}
			s.RunFor(time.Second)
			done += batch
		}
	}
}

// simCancel arms and stops retry-style timers in batches of 64, then lets
// simulated time pass them, on a simulator holding the standing queue.
func simCancel() func(int) {
	s := sim.NewSimulator()
	standingQueue(s)
	noop := func(any) {}
	timers := make([]sim.ArgTimer, 64)
	return func(n int) {
		for done := 0; done < n; {
			batch := min(len(timers), n-done)
			for i := 0; i < batch; i++ {
				timers[i] = s.AfterFuncArg(2*time.Second, noop, nil)
			}
			for i := 0; i < batch; i++ {
				timers[i].Stop()
			}
			s.RunFor(3 * time.Second)
			done += batch
		}
	}
}

// simnetSend sends 256-byte datagrams around 64 endpoints, delivering in
// batches of 1024.
func simnetSend() func(int) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond, Seed: 5})
	const n = 64
	addrs := make([]transport.Addr, n)
	eps := make([]transport.Endpoint, n)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("n%d", i))
		eps[i] = net.Endpoint(addrs[i])
		eps[i].SetHandler(func(transport.Addr, []byte) {})
	}
	payload := make([]byte, 256)
	next := 0
	return func(count int) {
		for i := 0; i < count; i++ {
			if err := eps[next%n].Send(addrs[(next+1)%n], payload); err != nil {
				panic(err) // a live simnet endpoint never fails a send
			}
			next++
			if next%1024 == 0 {
				s.Run()
			}
		}
		s.Run()
	}
}

// tableClosest selects the k closest contacts to random targets from a
// routing table that has observed a population of pop random nodes.
func tableClosest(pop int) func(int) {
	rng := stats.NewRNG(11)
	epoch := time.Unix(0, 0)
	tbl := dht.NewTable(dht.RandomID(rng), 20, 10*time.Minute, func() time.Time { return epoch })
	for i := 0; i < pop; i++ {
		tbl.Observe(dht.Contact{ID: dht.RandomID(rng), Addr: transport.Addr(fmt.Sprintf("n%d", i))})
	}
	targets := make([]dht.ID, 256)
	for i := range targets {
		targets[i] = dht.RandomID(rng)
	}
	dst := make([]dht.Contact, 0, 20)
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			dst = tbl.AppendClosest(dst[:0], targets[next&255], 20)
			next++
		}
	}
}

// wireCodec encodes and decodes a FindNode reply carrying k=20 contacts.
func wireCodec() (encode, decode func(int), err error) {
	rng := stats.NewRNG(13)
	msg := dht.Message{Kind: dht.KindFindNodeResp, RPCID: 42,
		From: dht.Contact{ID: dht.RandomID(rng), Addr: "n0"}}
	for i := 0; i < 20; i++ {
		msg.Contacts = append(msg.Contacts, dht.Contact{ID: dht.RandomID(rng), Addr: transport.Addr(fmt.Sprintf("n%d", i+1))})
	}
	wire, err := msg.Encode()
	if err != nil {
		return nil, nil, err
	}
	buf := make([]byte, 0, len(wire))
	var out dht.Message
	encode = func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = msg.AppendEncode(buf[:0])
		}
	}
	decode = func(n int) {
		for i := 0; i < n; i++ {
			if err := dht.DecodeMessageInto(&out, wire); err != nil {
				panic(err) // decoding the bytes Encode just produced
			}
		}
	}
	return encode, decode, nil
}

// dhtLookup boots a 1000-node simnet cluster and returns a rung running
// one iterative lookup per operation, plus a function giving the datagrams
// sent per lookup so far.
func dhtLookup() (lookup func(int), msgsPerLookup func() float64, err error) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: 3})
	rng := stats.NewRNG(4)
	nodes := make([]*dht.Node, 1000)
	for i := range nodes {
		ep := net.Endpoint(transport.Addr(fmt.Sprintf("n%d", i)))
		if nodes[i], err = dht.NewNode(dht.Config{ID: dht.RandomID(rng), Endpoint: ep, Clock: s}); err != nil {
			return nil, nil, err
		}
	}
	seed := []dht.Contact{nodes[0].Contact()}
	for _, n := range nodes[1:] {
		n.Bootstrap(seed, nil)
	}
	s.Run()
	sent0, _, _ := net.Stats()
	lookups := 0
	lookup = func(n int) {
		for i := 0; i < n; i++ {
			done := false
			nodes[lookups%len(nodes)].Lookup(dht.RandomID(rng), func([]dht.Contact) { done = true })
			s.Run()
			if !done {
				panic("lookup did not finish") // the simulator ran dry first
			}
			lookups++
		}
	}
	msgsPerLookup = func() float64 {
		sent, _, _ := net.Stats()
		return float64(sent-sent0) / float64(lookups)
	}
	return lookup, msgsPerLookup, nil
}

// protocolMission runs complete mission cycles (dispatch, hold, release,
// delivery) through a 60-node network with Retry=3 and no churn.
func protocolMission() (func(int), error) {
	net, err := selfemerge.NewNetwork(selfemerge.NetworkConfig{Nodes: 60, Seed: 11, Retry: 3})
	if err != nil {
		return nil, err
	}
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}
	var failure error
	return func(n int) {
		for i := 0; i < n && failure == nil; i++ {
			msg, err := net.Send([]byte("ladder probe"), time.Hour, selfemerge.WithPlan(plan))
			if err != nil {
				failure = err
				break
			}
			net.RunUntil(msg.Release().Add(time.Minute))
			net.Settle()
			if _, _, ok := net.Emerged(msg); !ok {
				failure = fmt.Errorf("mission did not emerge")
			}
		}
		if failure != nil {
			panic(failure)
		}
	}, nil
}

// onionCycle wraps and unwraps the onion of one joint 2x2 mission along
// the protocol's path. build is the sender's per-mission work: a sealer per
// column key, then onion.BuildSealers over the two layers (column 1 names
// both column-2 slots, column 2 names the receiver and carries the content
// key). peel is the two holders' work: column 1 and then column 2 each
// open their layer with onion.PeelSealer through the sealer they keep.
func onionCycle() (build, peel func(int), err error) {
	const k, l = 2, 2
	stream := stats.NewByteStream(4)
	var mission protocol.MissionID
	keys := make([]seal.Key, l)
	sealers := make([]*seal.Sealer, l)
	for c := range keys {
		if keys[c], err = seal.NewKeyFrom(stream); err != nil {
			return nil, nil, err
		}
		if sealers[c], err = seal.NewSealerRand(keys[c], stream); err != nil {
			return nil, nil, err
		}
	}
	receiver := dht.IDFromKey([]byte("receiver"))
	layers := []onion.Layer{{}, {NextHops: [][]byte{receiver[:]}, Payload: make([]byte, seal.KeySize)}}
	for sl := 0; sl < k; sl++ {
		slot := protocol.SlotID(mission, 2, sl)
		layers[0].NextHops = append(layers[0].NextHops, slot[:])
	}
	wrapped, err := onion.BuildSealers(layers, sealers)
	if err != nil {
		return nil, nil, err
	}
	perMission := make([]*seal.Sealer, l)
	build = func(n int) {
		for i := 0; i < n; i++ {
			for c, key := range keys {
				s, err := seal.NewSealerRand(key, stream)
				if err != nil {
					panic(err) // the keys built above
				}
				perMission[c] = s
			}
			if _, err := onion.BuildSealers(layers, perMission); err != nil {
				panic(err) // the layers built above
			}
		}
	}
	peel = func(n int) {
		for i := 0; i < n; i++ {
			outer, err := onion.PeelSealer(sealers[0], wrapped)
			if err != nil {
				panic(err) // the onion sealed above
			}
			if _, err := onion.PeelSealer(sealers[1], outer.Rest); err != nil {
				panic(err)
			}
		}
	}
	return build, peel, nil
}

// faultJudge judges datagrams between 64 addresses under the burst profile
// at severity 0.5, one millisecond of simulated time apart.
func faultJudge() (func(int), error) {
	e, err := fault.New(fault.Config{Profile: fault.ProfileBurst, Severity: 0.5, Seed: 9})
	if err != nil {
		return nil, err
	}
	addrs := make([]transport.Addr, 64)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("n%d", i))
	}
	now := time.Unix(0, 0)
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			e.Judge(now, addrs[next&63], addrs[(next*7+1)&63])
			now = now.Add(time.Millisecond)
			next++
		}
	}, nil
}

// mcTrial runs Monte Carlo trials of the mc-fig7 point at p = 0.2 for one
// scheme.
func mcTrial(scheme core.Scheme) (func(int), error) {
	pt := experiment.Point{Scheme: scheme, P: 0.2, Alpha: 3, Network: 10000}
	plan, err := pt.Plan()
	if err != nil {
		return nil, err
	}
	env := pt.Env()
	rng := stats.NewRNG(17)
	return func(n int) {
		for i := 0; i < n; i++ {
			mc.RunTrial(plan, env, rng)
		}
	}, nil
}
