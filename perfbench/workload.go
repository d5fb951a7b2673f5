package main

import (
	"fmt"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/scenario"
)

// workload is one named input set of the benchmark. Exactly one of live and
// sweep is set: a live workload boots a network and drives missions through
// it, the Monte Carlo workload runs a figure sweep.
type workload struct {
	name string
	live func(seed uint64, small bool) scenario.Config
	// sweep returns the runner and sweep of the Monte Carlo workload.
	sweep func(seed uint64, small bool) (experiment.Runner, experiment.Sweep)
}

// jointCfg is the paper's live Figure 7 point: a joint 2x2 plan under a 10%
// Sybil drop attack and alpha=1 replacement churn.
func jointCfg(seed uint64, small bool) scenario.Config {
	cfg := scenario.Config{
		Nodes:         1000,
		MaliciousRate: 0.1,
		Drop:          true,
		Alpha:         1,
		Missions:      200,
		Plan:          core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2},
		MCTrials:      2000,
		Seed:          seed,
	}
	if small {
		cfg.Nodes, cfg.Missions = 120, 12
	}
	return cfg
}

var workloads = []workload{
	{
		name: "churn-joint",
		live: jointCfg,
	},
	{
		name: "faulty-retry",
		live: func(seed uint64, small bool) scenario.Config {
			cfg := jointCfg(seed, small)
			cfg.Fault = fault.ProfileBurst
			cfg.FaultSeverity = 0.5
			cfg.Retry = 3
			return cfg
		},
	},
	{
		name: "partition-boot",
		live: func(seed uint64, small bool) scenario.Config {
			cfg := jointCfg(seed, small)
			cfg.Nodes, cfg.Missions = partitionNodes, 50
			cfg.Alpha = 0
			cfg.Partition = 2
			if small {
				cfg.Nodes, cfg.Missions = 300, 6
			}
			return cfg
		},
	},
	{
		name:  "mc-fig7",
		sweep: fig7Sweep,
	},
}

// partitionNodes sizes the partition-boot population.
const partitionNodes = 10000

// fig7Trials is the Monte Carlo trial count per point of mc-fig7.
const fig7Trials = 200

// fig7Sweep is the canned Figure 7 sweep at alpha = 3: all four schemes in a
// 10,000-node DHT over the malicious-rate axis. Each point's trials are split
// over a fixed two workers (not GOMAXPROCS), so the sampled streams, and with
// them the digest, are the same on every machine.
func fig7Sweep(seed uint64, small bool) (experiment.Runner, experiment.Sweep) {
	trials, step := fig7Trials, 0.05
	if small {
		trials, step = 20, 0.1
	}
	runner := experiment.Runner{
		Estimator: experiment.MonteCarlo{Trials: trials, Workers: 2},
		Parallel:  1,
	}
	return runner, experiment.Sweep{
		Name: "fig7-alpha3",
		Seed: seed,
		Base: experiment.Point{Network: 10000, Alpha: 3},
		Axes: []experiment.Axis{
			experiment.RangeAxis("p", 0, 0.5, step),
			experiment.SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint, core.SchemeKeyShare),
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
