package experiments

import (
	"context"
	"errors"
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
	d := Degraded()
	d.Points = []Point{LossPoint(0), LossPoint(0.05)}
	d.Seeds = 1
	return d
}

// TestStudiesDeterministic runs every study at its defaults: the rows
// are points × policies in point-major order, and the worker count does
// not change a byte of the CSV or the table.
func TestStudiesDeterministic(t *testing.T) {
	for _, s := range Studies() {
		t.Run(s.ID, func(t *testing.T) {
			serial, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := len(s.Points) * len(s.Policies); len(serial.Rows) != want {
				t.Fatalf("rows = %d, want %d", len(serial.Rows), want)
			}
			for i, row := range serial.Rows {
				pt, pol := s.Points[i/len(s.Policies)], s.Policies[i%len(s.Policies)]
				if row.Point.Name != pt.Name || row.Policy != pol.String() {
					t.Errorf("row %d = %s/%s, want %s/%s", i, row.Point.Name, row.Policy, pt.Name, pol)
				}
			}
			assertSameAt(t, s, serial, 3)
		})
	}
}

// assertSameAt reruns s with the given worker count and fails unless
// its CSV and table match serial byte for byte.
func assertSameAt(t *testing.T, s Study, serial *StudyReport, parallel int) {
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
	if want := len(d.Points) * len(d.Policies); len(rep.Rows) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Rows), want)
	}
	for _, c := range rep.Rows {
		v := c.Values
		if c.Point.CSV == "0" {
			if v["strips_retried"] != 0 || v["frames_dropped"] != 0 {
				t.Errorf("%s at 0%% loss retried %g strips, dropped %g frames",
					c.Policy, v["strips_retried"], v["frames_dropped"])
			}
		} else {
			if v["frames_dropped"] == 0 || v["strips_retried"] == 0 {
				t.Errorf("%s at %s loss shows no fault activity", c.Policy, c.Point.Name)
			}
		}
		// The acceptance bar: every policy completes at 5% loss with the
		// retry budget — no unaccounted lost operations.
		if v["failed_ops"] != 0 {
			t.Errorf("%s at %s loss failed %g ops", c.Policy, c.Point.Name, v["failed_ops"])
		}
		if g := v["goodput"]; g != 1 {
			t.Errorf("%s at %s loss goodput %.4f, want 1.0", c.Policy, c.Point.Name, g)
		}
		if v["latency_mean_ms"] <= 0 || v["latency_p99_ms"] < v["latency_mean_ms"] {
			t.Errorf("%s latency books inconsistent: mean %.3f p99 %.3f",
				c.Policy, v["latency_mean_ms"], v["latency_p99_ms"])
		}
	}
	// Loss degrades latency for every policy.
	for i, pol := range d.Policies {
		healthy := rep.Rows[i].Values["latency_p99_ms"]
		lossy := rep.Rows[len(d.Policies)+i].Values["latency_p99_ms"]
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
		v := row.Values
		if v["crashes"] != 1 {
			t.Errorf("%s: crashes = %g, want 1", row.Policy, v["crashes"])
		}
		if want := 30 * units.Millisecond; units.Time(v["downtime_ns"]) != want {
			t.Errorf("%s: downtime = %v, want %v", row.Policy, units.Time(v["downtime_ns"]), want)
		}
		if v["recovery_ns"] <= 0 {
			t.Errorf("%s: no recovery time recorded", row.Policy)
		}
		if v["strips_retried"] == 0 {
			t.Errorf("%s: rode through a 30ms outage without retries", row.Policy)
		}
		if v["failed_ops"] != 0 {
			t.Errorf("%s: %g ops failed despite the retry budget", row.Policy, v["failed_ops"])
		}
	}
}

// TestDegradedSweepValidatesInput covers the error paths.
func TestDegradedSweepValidatesInput(t *testing.T) {
	d := Study{Config: cluster.DefaultConfig()}
	if _, err := d.Run(); err == nil {
		t.Error("sweep without loss rates or policies ran")
	}
	bad := tinySweep()
	bad.Config.Servers = 0
	if _, err := bad.Run(); err == nil {
		t.Error("invalid cell config accepted")
	}
}

// smallGraceful shrinks the default study for test turnaround: one
// policy, a 4-server cluster, the same permanent crash.
func smallGraceful() Study {
	g := GracefulDegradation()
	g.Policies = []irqsched.PolicyKind{irqsched.PolicySourceAware}
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
	g.Points = []Point{deadlinePoint(0), deadlinePoint(30 * units.Millisecond)}
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
	hard, soft := rep.Rows[0].Values, rep.Rows[1].Values
	if rep.Rows[0].Point.CSV != "0" || rep.Rows[1].Point.CSV == "0" {
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
		offered, served := row.Values["bg_offered_bytes"], row.Values["bg_served_bytes"]
		if row.Point.Name == "0" {
			if offered != 0 || served != 0 {
				t.Errorf("%s at load 0: background offered %g, served %g", row.Policy, offered, served)
			}
			continue
		}
		if offered == 0 || served > offered {
			t.Errorf("%s at load %s: background served %g of %g offered", row.Policy, row.Point.Name, served, offered)
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
	s.Policies = []irqsched.PolicyKind{irqsched.PolicySourceAware}
	bad := Point{Name: "bad", CSV: "bad", Set: func(c *cluster.Config) { c.Servers = 0 }}
	s.Points = []Point{LossPoint(0), LossPoint(0.01), bad, LossPoint(0.02), LossPoint(0.03), LossPoint(0.04)}
	var executed int
	s.Progress = func(done, total int) { executed = done }
	rep, err := s.RunContext(context.Background())
	if err == nil {
		t.Fatal("study with an invalid point succeeded")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q does not name the failing point", err)
	}
	if executed != 2 {
		t.Errorf("executed %d cells after the failure at index 2, want exactly 2", executed)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Point.Name != "0%" || rep.Rows[1].Point.Name != "1%" {
		t.Errorf("partial report rows = %+v, want the two completed rows", rep.Rows)
	}
}
