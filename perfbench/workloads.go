package main

import (
	"bytes"
	_ "embed"
	"fmt"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/scenario"
	"sais/internal/units"
)

// hybridScenario is the noisy-neighbor-1m scenario, copied into the
// benchmark so that editing the repository's scenario set never changes
// what the benchmark measures.
//
//go:embed hybrid-1m.json
var hybridScenario []byte

// workload is one named input set. build returns the distinct run
// configs the timed pass alternates over, keyed by the name their
// golden digest is filed under. It does all of the workload's loading
// and validation, so its cost is part of setup_s.
type workload struct {
	name  string
	build func(seed uint64, tiny bool) ([]runConfig, error)
}

// runConfig is one distinct cluster.Run input of a workload.
type runConfig struct {
	key string
	cfg cluster.Config
}

// workloads is the benchmark's fixed workload set; README.md gives the
// reason for each and the layers it loads.
var workloads = []workload{
	{"paper-read", paperRead},
	{"scaleout-read", scaleoutRead},
	{"lossy-write", lossyWrite},
	{"hybrid-1m", hybrid1m},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperRead is the paper's Figure 5 cell at 48 servers: the default
// single 8-core client, run under irqbalance and sais in turn.
func paperRead(seed uint64, tiny bool) ([]runConfig, error) {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 48
	cfg.BytesPerProc = 128 * units.MiB
	if tiny {
		cfg.Servers = 8
		cfg.BytesPerProc = 4 * units.MiB
	}
	cfg.Seed = seed
	return validated(
		runConfig{"irqbalance", cfg.WithPolicy(irqsched.PolicyIrqbalance)},
		runConfig{"sais", cfg.WithPolicy(irqsched.PolicySourceAware)},
	)
}

// scaleoutRead is the 224-client × 32-server cluster of the root
// package's BenchmarkShardedScaling, on one engine.
func scaleoutRead(seed uint64, tiny bool) ([]runConfig, error) {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 224
	cfg.Servers = 32
	cfg.CoresPerClient = 2
	cfg.ProcsPerClient = 1
	cfg.CachePerCore = 64 * units.KiB
	cfg.StripSize = 16 * units.KiB
	cfg.TransferSize = 64 * units.KiB
	cfg.BytesPerProc = 256 * units.KiB
	cfg.Policy = irqsched.PolicySourceAware
	if tiny {
		cfg.Clients = 16
		cfg.Servers = 4
	}
	cfg.Seed = seed
	return validated(runConfig{"sais", cfg})
}

// lossyWrite writes through a fabric that drops 1% of frames, so every
// transfer arms (and mostly cancels) a retry timer.
func lossyWrite(seed uint64, tiny bool) ([]runConfig, error) {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 16
	cfg.Servers = 16
	cfg.CoresPerClient = 4
	cfg.ProcsPerClient = 2
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 4 * units.MiB
	cfg.WriteWorkload = true
	cfg.Faults = &faults.Plan{Loss: 0.01}
	cfg.RetryTimeout = 5 * units.Millisecond
	cfg.MaxRetries = 100
	cfg.Policy = irqsched.PolicySourceAware
	if tiny {
		cfg.Clients = 4
		cfg.Servers = 4
		cfg.BytesPerProc = units.MiB
	}
	cfg.Seed = seed
	return validated(runConfig{"sais", cfg})
}

// hybrid1m is the noisy-neighbor-1m scenario (one million fluid
// background users beside 64 full-fidelity clients) under sais.
func hybrid1m(seed uint64, tiny bool) ([]runConfig, error) {
	s, err := scenario.Read(bytes.NewReader(hybridScenario))
	if err != nil {
		return nil, err
	}
	cfg := s.Config
	cfg.Policy = irqsched.PolicySourceAware
	if tiny {
		cfg.ForegroundClients = 4
		cfg.Servers = 4
		cfg.BytesPerProc = 512 * units.KiB
		cfg.BackgroundUsers = 10000
	}
	cfg.Seed = seed
	return validated(runConfig{"sais", cfg})
}

func validated(rcs ...runConfig) ([]runConfig, error) {
	for _, rc := range rcs {
		if err := rc.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("config %s: %w", rc.key, err)
		}
	}
	return rcs, nil
}
