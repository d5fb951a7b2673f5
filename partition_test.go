package selfemerge

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"selfemerge/internal/protocol"
)

// runTrace drives a fixed two-mission workload and returns a full observable
// fingerprint of the run: mission outcomes with timestamps and secrets,
// churn totals, fabric counters, the eclipse route audit, and the retry
// layer's counters.
func runTrace(t *testing.T, cfg NetworkConfig) string {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for m := 0; m < 2; m++ {
		var id protocol.MissionID
		id[0] = byte(m + 1)
		msg, err := net.Send([]byte("partition golden"), 2*time.Hour,
			WithScheme(SchemeJoint), WithThreatModel(0.1), WithMissionID(id))
		if err != nil {
			t.Fatal(err)
		}
		net.RunUntil(msg.Release().Add(time.Minute))
		net.Settle()
		plain, at, ok := net.Emerged(msg)
		recAt, rec := net.AdversaryRecovered(msg)
		out += fmt.Sprintf("mission=%d emerged=%v at=%d plain=%q recovered=%v recAt=%d\n",
			m, ok, at.UnixNano(), plain, rec, recAt.UnixNano())
	}
	deaths, joins := net.ChurnEvents()
	sent, delivered, dropped := net.FabricStats()
	out += fmt.Sprintf("deaths=%d joins=%d sent=%d delivered=%d dropped=%d now=%d\n",
		deaths, joins, sent, delivered, dropped, net.Now().UnixNano())
	res := net.ResilienceStats()
	live, poisoned := net.RouteAudit()
	out += fmt.Sprintf("forged=%d live=%d poisoned=%d retries=%d recovered=%d duplicates=%d\n",
		net.ForgedContacts(), live, poisoned, res.Retries, res.Recovered, res.Duplicates)
	return out
}

// goldenCfg is the churned, drop-attacked population the partition goldens
// run: 80 nodes, 20% Sybil holders, replacement churn with repair.
func goldenCfg() NetworkConfig {
	return NetworkConfig{
		Nodes:           80,
		MaliciousRate:   0.2,
		Attack:          AttackDrop,
		MeanLifetime:    3 * time.Hour,
		Replace:         true,
		Repair:          true,
		HonestEndpoints: true,
		Replicas:        1,
		Seed:            11,
	}
}

// faultyCfg adds burst faults at severity 0.5 and retry-hardened RPCs.
func faultyCfg() NetworkConfig {
	cfg := goldenCfg()
	cfg.Fault, cfg.FaultSeverity, cfg.Retry = FaultBurst, 0.5, 3
	return cfg
}

// TestOneLoopGolden pins the one-loop engine to fingerprints recorded from
// the former dedicated single-simulator wiring, which Partition: 0 used to
// select. Partition 0 and 1 now share one wiring, so both must reproduce
// those bytes: shard 0 keeps every historical seed derivation (fabric,
// churn, structural RNG, fault engine, forger), and a one-member lockstep
// runs one epoch per RunUntil — the same event sequence as a bare
// simulator.
func TestOneLoopGolden(t *testing.T) {
	eclipse := goldenCfg()
	eclipse.Attack, eclipse.ForgeRate, eclipse.Table = AttackEclipse, 2, TablePingEvict
	cases := []struct {
		name string
		cfg  NetworkConfig
		want string
	}{
		{"churn-drop", goldenCfg(), "" +
			"mission=0 emerged=true at=10860074999997 plain=\"partition golden\" recovered=true recAt=9831503571426\n" +
			"mission=1 emerged=true at=18420074999997 plain=\"partition golden\" recovered=false recAt=-6795364578871345152\n" +
			"deaths=114 joins=114 sent=44168 delivered=44168 dropped=0 now=18780000000000\n" +
			"forged=0 live=3011 poisoned=0 retries=0 recovered=0 duplicates=0\n"},
		{"burst-retry", faultyCfg(), "" +
			"mission=0 emerged=true at=10860088041874 plain=\"partition golden\" recovered=true recAt=9832277708205\n" +
			"mission=1 emerged=true at=18420804207945 plain=\"partition golden\" recovered=false recAt=-6795364578871345152\n" +
			"deaths=114 joins=114 sent=81683 delivered=76444 dropped=6690 now=18780000000000\n" +
			"forged=0 live=3013 poisoned=0 retries=6312 recovered=4948 duplicates=1403\n"},
		{"eclipse", eclipse, "" +
			"mission=0 emerged=true at=10885624999997 plain=\"partition golden\" recovered=true recAt=9853503571426\n" +
			"mission=1 emerged=true at=18445544999997 plain=\"partition golden\" recovered=false recAt=-6795364578871345152\n" +
			"deaths=114 joins=114 sent=270332 delivered=270331 dropped=0 now=18780000000000\n" +
			"forged=7962 live=4081 poisoned=1086 retries=0 recovered=0 duplicates=7865\n"},
	}
	for _, tc := range cases {
		for _, partition := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/partition=%d", tc.name, partition), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Partition = partition
				if got := runTrace(t, cfg); got != tc.want {
					t.Errorf("fingerprint diverged from the recorded one-loop run\nwant:\n%sgot:\n%s", tc.want, got)
				}
			})
		}
	}
}

// TestPartitionDeterministicAcrossWorkers checks the partition engine's
// headline property end to end: a multi-shard run's full observable
// fingerprint is identical whether the shard loops run serially or on
// concurrent workers — with and without fault injection, whose per-shard
// engines judge cross-shard hand-offs on the source shard's loop.
func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  NetworkConfig
	}{{"churn-drop", goldenCfg()}, {"burst-retry", faultyCfg()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Partition = 4
			cfg.PartitionWorkers = 1
			serial := runTrace(t, cfg)
			for _, workers := range []int{0, 4} {
				cfg.PartitionWorkers = workers
				if got := runTrace(t, cfg); got != serial {
					t.Errorf("workers=%d diverged from serial run\nserial:\n%sworkers:\n%s", workers, serial, got)
				}
			}
		})
	}
}

// TestPartitionDeliversAcrossShards is a plain liveness check: missions
// still emerge when the population spans several shards.
func TestPartitionDeliversAcrossShards(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 1, Partition: 3})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("cross-shard"), 4*time.Hour,
		WithScheme(SchemeJoint), WithThreatModel(0.1))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(-time.Minute))
	if _, _, ok := net.Emerged(msg); ok {
		t.Fatal("message emerged before release time")
	}
	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()
	plain, _, ok := net.Emerged(msg)
	if !ok {
		t.Fatal("message never emerged across shards")
	}
	if string(plain) != "cross-shard" {
		t.Fatalf("plaintext = %q", plain)
	}
}

func TestPartitionLoopsOwnInterners(t *testing.T) {
	// Each event loop owns one contact-address interner shared by its
	// nodes: both loops' interners fill during boot, and the same address
	// has one canonical string per loop, not one across loops.
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 5, Partition: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.interners) != 2 || net.interners[0] == net.interners[1] {
		t.Fatalf("want two distinct loop interners, got %d", len(net.interners))
	}
	var canon [2]*byte
	for i, in := range net.interners {
		if in.Len() == 0 {
			t.Fatalf("loop %d's interner is empty after boot", i)
		}
		canon[i] = unsafe.StringData(string(in.Intern([]byte("node-7"))))
		if again := unsafe.StringData(string(in.Intern([]byte("node-7")))); again != canon[i] {
			t.Fatalf("loop %d re-interned node-7 to a new string", i)
		}
	}
	if canon[0] == canon[1] {
		t.Fatal("two loops share one canonical string")
	}
}
