package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// tinySweep is a reduced degraded sweep for unit tests: two loss rates,
// the full policy set, one seed.
func tinySweep() Study {
	d := Degraded(0, 0.05)
	d.Seeds = 1
	return d
}

// means returns every column's mean over the seeds; with one seed, an
// event count's mean is its total.
func means(r Row) map[string]float64 {
	m := map[string]float64{}
	for k, s := range r.Stats {
		m[k] = s.Mean()
	}
	return m
}

// policyOf is the row's policy, its last key.
func policyOf(r Row) string { return r.Point.Values[len(r.Point.Values)-1] }

// TestStudiesDeterministic runs every study at its defaults: the rows
// are the points in order, the policy the last key, and the worker
// count does not change a byte of the CSV or the table.
func TestStudiesDeterministic(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.ID, func(t *testing.T) {
			serial, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Rows) != len(s.Points) {
				t.Fatalf("rows = %d, want %d", len(serial.Rows), len(s.Points))
			}
			for i, row := range serial.Rows {
				if want := s.Points[i].Values; !slices.Equal(row.Point.Values, want) {
					t.Errorf("row %d = %v, want %v", i, row.Point.Values, want)
				}
				if _, err := irqsched.ParsePolicy(policyOf(row)); err != nil {
					t.Errorf("row %d: last key %q is not a policy", i, policyOf(row))
				}
			}
			assertSameAt(t, s, serial, 3)
		})
	}
}

// assertSameAt reruns s with the given worker count and fails unless
// its CSV and table match serial byte for byte.
func assertSameAt(t *testing.T, s Study, serial *Report, parallel int) {
	t.Helper()
	s.Parallel = parallel
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.CSV(), rep.CSV(); a != b {
		t.Errorf("Parallel=%d CSV differs from serial:\n%s\nvs\n%s", parallel, b, a)
	}
	if a, b := serial.Table(), rep.Table(); a != b {
		t.Errorf("Parallel=%d table differs from serial:\n%s\nvs\n%s", parallel, b, a)
	}
}

// TestDegradedSweepParallelByteIdentical pins the reduced sweep's
// determinism at more workers than it has cells.
func TestDegradedSweepParallelByteIdentical(t *testing.T) {
	d := tinySweep()
	serial, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertSameAt(t, d, serial, 6)
}

// TestChaosScenarioByteIdentical is the experiment-level determinism
// criterion: the crash-and-recover scenario rendered twice from the
// same (plan, seed) must be byte-identical, table and CSV both, and the
// worker count must not matter either.
func TestChaosScenarioByteIdentical(t *testing.T) {
	c := CrashAndRecover()
	serial, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertSameAt(t, c, serial, 1)
	assertSameAt(t, c, serial, 3)
}

func TestDegradedSweepShapeAndRecovery(t *testing.T) {
	d := tinySweep()
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(DegradedPolicies); len(rep.Rows) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Rows), want)
	}
	for _, c := range rep.Rows {
		v, pol, loss := means(c), policyOf(c), c.Point.label(0)
		if c.Point.Values[0] == "0" {
			if v["strips_retried"] != 0 || v["frames_dropped"] != 0 {
				t.Errorf("%s at 0%% loss retried %g strips, dropped %g frames",
					pol, v["strips_retried"], v["frames_dropped"])
			}
		} else {
			if v["frames_dropped"] == 0 || v["strips_retried"] == 0 {
				t.Errorf("%s at %s loss shows no fault activity", pol, loss)
			}
		}
		// The acceptance bar: every policy completes at 5% loss with the
		// retry budget — no unaccounted lost operations.
		if v["failed_ops"] != 0 {
			t.Errorf("%s at %s loss failed %g ops", pol, loss, v["failed_ops"])
		}
		if g := v["goodput"]; g != 1 {
			t.Errorf("%s at %s loss goodput %.4f, want 1.0", pol, loss, g)
		}
		if v["latency_mean_ms"] <= 0 || v["latency_p99_ms"] < v["latency_mean_ms"] {
			t.Errorf("%s latency books inconsistent: mean %.3f p99 %.3f",
				pol, v["latency_mean_ms"], v["latency_p99_ms"])
		}
	}
	// Loss degrades latency for every policy.
	for i, pol := range DegradedPolicies {
		healthy := means(rep.Rows[i])["latency_p99_ms"]
		lossy := means(rep.Rows[len(DegradedPolicies)+i])["latency_p99_ms"]
		if lossy <= healthy {
			t.Errorf("%v: P99 %.3f at 5%% loss not above healthy %.3f", pol, lossy, healthy)
		}
	}
	table := rep.Table()
	for _, want := range []string{"sais", "irqbalance", "roundrobin", "0%", "5%", "goodput"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(rep.Rows) {
		t.Errorf("csv lines = %d, want header + %d rows", len(lines), len(rep.Rows))
	}
	if !strings.HasPrefix(lines[0], "loss_rate,policy,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestChaosScenarioRecoveryAccounting(t *testing.T) {
	rep, err := CrashAndRecover().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(DegradedPolicies) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		v, pol := means(row), policyOf(row)
		if v["crashes"] != 1 {
			t.Errorf("%s: crashes = %g, want 1", pol, v["crashes"])
		}
		if want := 30 * units.Millisecond; units.Time(v["downtime_ns"]) != want {
			t.Errorf("%s: downtime = %v, want %v", pol, units.Time(v["downtime_ns"]), want)
		}
		if v["recovery_ns"] <= 0 {
			t.Errorf("%s: no recovery time recorded", pol)
		}
		if v["strips_retried"] == 0 {
			t.Errorf("%s: rode through a 30ms outage without retries", pol)
		}
		if v["failed_ops"] != 0 {
			t.Errorf("%s: %g ops failed despite the retry budget", pol, v["failed_ops"])
		}
	}
}

// TestDegradedSweepValidatesInput covers the error paths.
func TestDegradedSweepValidatesInput(t *testing.T) {
	d := Study{Config: cluster.DefaultConfig(), Seeds: 1}
	if _, err := d.Run(); err == nil {
		t.Error("sweep without loss rates or policies ran")
	}
	bad := tinySweep()
	bad.Config.Servers = 0
	if _, err := bad.Run(); err == nil {
		t.Error("invalid cell config accepted")
	}
	for _, seeds := range []int{0, -1} {
		noSeeds := tinySweep()
		noSeeds.Seeds = seeds
		if _, err := noSeeds.Run(); err == nil || !strings.Contains(err.Error(), "seeds") {
			t.Errorf("Seeds %d: err = %v, want a seed-count error", seeds, err)
		}
	}
}

// smallGraceful shrinks the default study for test turnaround: one
// policy, a 4-server cluster, the same permanent crash.
func smallGraceful() Study {
	g := GracefulDegradation()
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = units.MiB
	cfg.RetryTimeout = 5 * units.Millisecond
	cfg.MaxRetries = 6
	cfg.RetryBackoff = 2
	cfg.RetryJitter = 0.1
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: units.Millisecond, Kind: faults.KindCrash, Server: 0},
	}}
	g.Config = cfg
	g.Points = cross([]Point{deadlinePoint(0), deadlinePoint(30 * units.Millisecond)},
		[]irqsched.PolicyKind{irqsched.PolicySourceAware})
	return g
}

// TestGracefulDegradationSalvages: the deadline posture converts
// hard failures into partial deliveries — strictly more bytes reach
// the application than under hard-fail, and the partial accounting is
// typed, not silent.
func TestGracefulDegradationSalvages(t *testing.T) {
	rep, err := smallGraceful().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	hard, soft := means(rep.Rows[0]), means(rep.Rows[1])
	if rep.Rows[0].Point.Values[0] != "0" || rep.Rows[1].Point.Values[0] == "0" {
		t.Fatalf("row order: %+v / %+v", rep.Rows[0], rep.Rows[1])
	}
	if hard["failed_ops"] == 0 {
		t.Error("hard-fail posture abandoned nothing; the crash is not biting")
	}
	if hard["partial_ops"] != 0 {
		t.Errorf("hard-fail posture reported %g partial ops without a deadline", hard["partial_ops"])
	}
	if soft["partial_ops"] == 0 {
		t.Error("deadline posture produced no partial results")
	}
	if soft["partial_bytes"] == 0 {
		t.Error("partial results salvaged zero bytes")
	}
	if soft["goodput"] <= hard["goodput"] {
		t.Errorf("deadline goodput %.3f not above hard-fail %.3f", soft["goodput"], hard["goodput"])
	}
}

// TestGracefulDeterministicRender: the report is a pure function of
// the study spec — rendering at two worker counts yields byte-identical
// text, and the CSV carries the deadline key column.
func TestGracefulDeterministicRender(t *testing.T) {
	g := smallGraceful()
	serial, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(serial.CSV(), "deadline_ns,") {
		t.Errorf("CSV header = %q", strings.SplitN(serial.CSV(), "\n", 2)[0])
	}
	assertSameAt(t, g, serial, 2)
}

// TestNoisyNeighborBackground: the load-0 rows run with no background
// population at all, and the loaded rows never serve more background
// bytes than they offer.
func TestNoisyNeighborBackground(t *testing.T) {
	rep, err := NoisyNeighbor().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		v, pol, load := means(row), policyOf(row), row.Point.Values[0]
		offered, served := v["bg_offered_bytes"], v["bg_served_bytes"]
		if load == "0" {
			if offered != 0 || served != 0 {
				t.Errorf("%s at load 0: background offered %g, served %g", pol, offered, served)
			}
			continue
		}
		if offered == 0 || served > offered {
			t.Errorf("%s at load %s: background served %g of %g offered", pol, load, served, offered)
		}
	}
}

// TestStudyRunContextCancelled: a study under a cancelled context runs
// nothing and says why.
func TestStudyRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := tinySweep().RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Rows) != 0 {
		t.Errorf("pre-cancelled study reported rows: %+v", rep)
	}
}

// TestStudyFirstErrorCancelsRest: the first failing cell stops the
// study, and the report keeps the rows completed before it.
func TestStudyFirstErrorCancelsRest(t *testing.T) {
	s := tinySweep()
	bad := Point{Values: []string{"bad"}, Set: func(c *cluster.Config) { c.Servers = 0 }}
	s.Points = cross([]Point{LossPoint(0), LossPoint(0.01), bad, LossPoint(0.02), LossPoint(0.03), LossPoint(0.04)},
		[]irqsched.PolicyKind{irqsched.PolicySourceAware})
	rep, err := s.RunContext(context.Background())
	if err == nil {
		t.Fatal("study with an invalid point succeeded")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not name the failing point", err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Point.label(0) != "0%" || rep.Rows[1].Point.label(0) != "1%" {
		t.Errorf("partial report rows = %+v, want the two completed rows", rep.Rows)
	}
}
