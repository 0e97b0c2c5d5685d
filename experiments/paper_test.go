package experiments

import (
	"testing"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// TestPaperClaims is the regression suite for the reproduction itself:
// each subtest pins one claim from the paper's evaluation to a band the
// simulator must stay inside. If a refactor or recalibration moves a
// headline shape, this is the test that names the broken claim.
//
// Bands are intentionally wide — the target is the paper's *shape*
// (who wins, by roughly what factor, where the crossovers fall), not
// its absolute testbed numbers. EXPERIMENTS.md records the exact
// measured values.
func TestPaperClaims(t *testing.T) {
	pair := func(t *testing.T, cfg cluster.Config) (base, sais *cluster.Result) {
		t.Helper()
		base, err := cluster.Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
		if err != nil {
			t.Fatal(err)
		}
		sais, err = cluster.Run(cfg.WithPolicy(irqsched.PolicySourceAware))
		if err != nil {
			t.Fatal(err)
		}
		return base, sais
	}
	speedup := func(base, sais *cluster.Result) float64 {
		return float64(sais.Bandwidth)/float64(base.Bandwidth) - 1
	}

	std := cluster.DefaultConfig()
	std.BytesPerProc = 24 * units.MiB

	t.Run("3gbit-peak-speedup-in-twenties", func(t *testing.T) {
		// Paper: max +23.57 % at 48 servers on the 3-Gbit NIC.
		cfg := std
		cfg.Servers = 48
		base, sais := pair(t, cfg)
		if got := speedup(base, sais); got < 0.10 || got > 0.40 {
			t.Errorf("48-server 3-Gbit speed-up %.1f%% outside [10%%, 40%%] (paper: 23.57%%)", got*100)
		}
	})

	t.Run("speedup-grows-from-8-servers", func(t *testing.T) {
		// Paper: the gain rises with server count as the NIC-side
		// bottleneck clears.
		small := std
		small.Servers = 8
		large := std
		large.Servers = 32
		b8, s8 := pair(t, small)
		b32, s32 := pair(t, large)
		if speedup(b8, s8) >= speedup(b32, s32) {
			t.Errorf("speed-up at 8 servers (%.1f%%) not below 32 servers (%.1f%%)",
				speedup(b8, s8)*100, speedup(b32, s32)*100)
		}
	})

	t.Run("1gbit-bottleneck-compresses-gain", func(t *testing.T) {
		// Paper: 1-Gbit peak is only 6.05 %.
		cfg := std
		cfg.Servers = 32
		cfg.ClientNICRate = units.Gigabit
		base, sais := pair(t, cfg)
		if got := speedup(base, sais); got < 0 || got > 0.08 {
			t.Errorf("1-Gbit speed-up %.1f%% outside [0%%, 8%%] (paper: ≤6.05%%)", got*100)
		}
	})

	t.Run("missrate-reduction-near-forty-percent", func(t *testing.T) {
		// Paper Fig. 7: ≈40 % reduction at the headline transfer size.
		cfg := std
		cfg.Servers = 16
		base, sais := pair(t, cfg)
		red := 1 - sais.CacheMissRate/base.CacheMissRate
		if red < 0.25 || red > 0.60 {
			t.Errorf("miss-rate reduction %.1f%% outside [25%%, 60%%] (paper: ≈40%%)", red*100)
		}
	})

	t.Run("unhalted-cycles-reduced", func(t *testing.T) {
		// Paper Figs. 10/11: up to 27 % (1-Gbit) and 48 % (3-Gbit).
		cfg := std
		cfg.Servers = 16
		base, sais := pair(t, cfg)
		red := 1 - float64(sais.UnhaltedCycles)/float64(base.UnhaltedCycles)
		if red < 0.15 || red > 0.65 {
			t.Errorf("unhalted reduction %.1f%% outside [15%%, 65%%]", red*100)
		}
	})

	t.Run("sais-zero-migration", func(t *testing.T) {
		// The mechanism itself: with pinned processes every hinted strip
		// lands on its consumer; no cache-to-cache traffic remains.
		cfg := std
		cfg.Servers = 16
		_, sais := pair(t, cfg)
		if sais.RemoteLines != 0 {
			t.Errorf("SAIs migrated %d lines", sais.RemoteLines)
		}
	})

	t.Run("no-nic-bottleneck-gain-near-fifty", func(t *testing.T) {
		// Paper §VI: +53.23 % with the client at memory rate.
		e := Figure14()
		cfg := e.Config
		e.Points[4].Set(&cfg) // 4 apps
		base, sais := pair(t, cfg)
		if got := speedup(base, sais); got < 0.30 || got > 0.80 {
			t.Errorf("no-bottleneck speed-up %.1f%% outside [30%%, 80%%] (paper: 53.23%%)", got*100)
		}
	})

	t.Run("multiclient-gain-decays-past-saturation", func(t *testing.T) {
		// Paper Fig. 12: +20.46 % at 8 clients decaying to +1.39 % at 56.
		peak := cluster.DefaultConfig()
		peak.Clients = 8
		peak.Servers = 8
		peak.SharedFiles = true
		peak.BytesPerProc = 8 * units.MiB
		over := peak
		over.Clients = 48
		bp, sp := pair(t, peak)
		bo, so := pair(t, over)
		if speedup(bp, sp) <= speedup(bo, so) {
			t.Errorf("gain at 8 clients (%.1f%%) not above 48 clients (%.1f%%)",
				speedup(bp, sp)*100, speedup(bo, so)*100)
		}
		if got := speedup(bo, so); got > 0.05 {
			t.Errorf("overloaded gain %.1f%% should be marginal (paper: 1.39%% at 56)", got*100)
		}
	})

	t.Run("writes-unaffected", func(t *testing.T) {
		// Paper §I: no locality issue on the write path.
		cfg := std
		cfg.Servers = 16
		cfg.WriteWorkload = true
		base, sais := pair(t, cfg)
		if got := speedup(base, sais); got > 0.03 || got < -0.03 {
			t.Errorf("write-path difference %.2f%% should be ≈0", got*100)
		}
	})
}
