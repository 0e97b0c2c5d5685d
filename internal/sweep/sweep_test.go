package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sais/cluster"
	"sais/experiments"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/units"
)

func TestParseDim(t *testing.T) {
	d, err := ParseDim("servers=8,16,32")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "servers" || len(d.Values) != 3 || d.Values[2] != "32" {
		t.Errorf("dim = %+v", d)
	}
	bad := []string{"", "servers", "=8", "servers=", "servers=8,,16", "bogus=1"}
	for _, s := range bad {
		if _, err := ParseDim(s); err == nil {
			t.Errorf("ParseDim(%q) accepted", s)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(setters) {
		t.Errorf("Names() = %d entries, setters = %d", len(names), len(setters))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted at %d: %v", i, names)
		}
	}
}

func TestProductExpands(t *testing.T) {
	base := cluster.DefaultConfig()
	dims := []Dim{
		{Name: "servers", Values: []string{"8", "16"}},
		{Name: "policy", Values: []string{"irqbalance", "sais"}},
	}
	points, err := Product(dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		key := strings.Join(p.Values, "/")
		seen[key] = true
		cfg := base
		p.Set(&cfg)
		if p.Values[0] == "16" && cfg.Servers != 16 {
			t.Errorf("servers not applied: %v", p.Values)
		}
		if p.Values[1] == "sais" && cfg.Policy != irqsched.PolicySourceAware {
			t.Errorf("policy not applied: %v", p.Values)
		}
	}
	if len(seen) != 4 {
		t.Errorf("combinations = %v", seen)
	}
	// The first dimension varies slowest.
	if got := strings.Join(points[1].Values, "/"); got != "8/sais" {
		t.Errorf("second point = %s, want 8/sais", got)
	}
	// Base must be untouched.
	if base.Servers != cluster.DefaultConfig().Servers {
		t.Error("Product mutated the base config")
	}
}

// TestProductRejectsRepeatedDimension: a dimension named twice is an
// error, not a silent overwrite of the first.
func TestProductRejectsRepeatedDimension(t *testing.T) {
	dims := []Dim{
		{Name: "servers", Values: []string{"8"}},
		{Name: "policy", Values: []string{"sais"}},
		{Name: "servers", Values: []string{"16"}},
	}
	if _, err := Product(dims); err == nil || !strings.Contains(err.Error(), `"servers" given twice`) {
		t.Errorf("err = %v, want a repeated-dimension error", err)
	}
}

func TestSettersApplyTypedValues(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cases := []struct {
		dim, val string
		check    func() bool
	}{
		{"transfer", "512KiB", func() bool { return cfg.TransferSize == 512*units.KiB }},
		{"nic", "1", func() bool { return cfg.ClientNICRate == units.Gigabit }},
		{"migrate", "0.25", func() bool { return cfg.MigrateDuringBlock == 0.25 }},
		{"shared", "true", func() bool { return cfg.SharedFiles }},
		{"write", "true", func() bool { return cfg.WriteWorkload }},
		{"quantum", "2ms", func() bool { return cfg.TimesliceQuantum == 2*units.Millisecond }},
		{"remoteline", "300ns", func() bool { return cfg.Costs.RemoteLine == 300 }},
		{"seed", "9", func() bool { return cfg.Seed == 9 }},
	}
	for _, c := range cases {
		apply, err := setters[c.dim](c.val)
		if err != nil {
			t.Fatalf("%s=%s: %v", c.dim, c.val, err)
		}
		apply(&cfg)
		if !c.check() {
			t.Errorf("%s=%s not applied", c.dim, c.val)
		}
	}
	// Type errors surface.
	for _, bad := range [][2]string{{"servers", "eight"}, {"policy", "bogus"}, {"shared", "maybe"}, {"quantum", "soon"}} {
		if _, err := setters[bad[0]](bad[1]); err == nil {
			t.Errorf("%s=%s accepted", bad[0], bad[1])
		}
	}
}

// TestLossPointsOwnTheirPlans checks the loss dimension writes each
// point's rate into a plan of its own, keeping the base plan's other
// faults and leaving the base plan untouched.
func TestLossPointsOwnTheirPlans(t *testing.T) {
	base := cluster.DefaultConfig()
	base.Faults = &faults.Plan{Corrupt: 0.01}
	points, err := Product([]Dim{{Name: "loss", Values: []string{"0.1", "0.2"}}})
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := base, base
	points[0].Set(&ca)
	points[1].Set(&cb)
	a, b := ca.Faults, cb.Faults
	if a == b || a == base.Faults || b == base.Faults {
		t.Fatal("loss points share a fault plan")
	}
	if a.Loss != 0.1 || b.Loss != 0.2 || a.Corrupt != 0.01 || b.Corrupt != 0.01 {
		t.Errorf("plans = %+v, %+v", a, b)
	}
	if base.Faults.Loss != 0 {
		t.Errorf("base plan mutated: %+v", base.Faults)
	}
	// A loss point on a healthy base gets a fresh plan too.
	var cfg cluster.Config
	apply, err := setters["loss"]("0.05")
	if err != nil {
		t.Fatal(err)
	}
	if apply(&cfg); cfg.Faults == nil || cfg.Faults.Loss != 0.05 {
		t.Errorf("loss on a nil plan: %+v", cfg.Faults)
	}
}

// smallSweep builds a fast sweep study for orchestration tests.
func smallSweep(t *testing.T, dims ...Dim) experiments.Study {
	t.Helper()
	points, err := Product(dims)
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.DefaultConfig()
	base.BytesPerProc = 4 * units.MiB
	var names []string
	for _, d := range dims {
		names = append(names, d.Name)
	}
	return experiments.Sweep(base, names, points)
}

func TestCSVEndToEnd(t *testing.T) {
	s := smallSweep(t, Dim{Name: "policy", Values: []string{"irqbalance", "sais"}})
	s.Config.Servers = 8
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(rep.CSV(), "\n"), "\n")
	header := lines[0]
	if !strings.HasPrefix(header, "policy,bandwidth_MBps") {
		t.Errorf("header = %q", header)
	}
	if len(lines) != 3 {
		t.Fatalf("csv = %d lines, want a header and 2 rows", len(lines))
	}
	wantCols := strings.Count(header, ",") + 1
	for i, row := range lines[1:] {
		if got := strings.Count(row, ",") + 1; got != wantCols {
			t.Errorf("row has %d columns, header %d: %q", got, wantCols, row)
		}
		if want := []string{"irqbalance", "sais"}[i] + ","; !strings.HasPrefix(row, want) {
			t.Errorf("row = %q", row)
		}
	}
}

func TestProductNoDims(t *testing.T) {
	points, err := Product(nil)
	if err != nil || len(points) != 1 {
		t.Errorf("empty product = %d points, %v", len(points), err)
	}
}

// smallDims is a fast 2×2 product for orchestration tests.
var smallDims = []Dim{
	{Name: "servers", Values: []string{"4", "8"}},
	{Name: "policy", Values: []string{"irqbalance", "sais"}},
}

func TestRowsParallelMatchesSerial(t *testing.T) {
	s := smallSweep(t, smallDims...)
	serial, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(s.Points) {
		t.Fatalf("rows = %d, want %d", len(serial.Rows), len(s.Points))
	}
	s.Parallel = 4
	parallel, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.CSV(), parallel.CSV(); a != b {
		t.Errorf("parallel CSV differs:\n%s\nvs\n%s", b, a)
	}
}

func TestRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := smallSweep(t, smallDims...)
	s.Parallel = 2
	rep, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Rows) != 0 {
		t.Errorf("pre-cancelled sweep reported rows: %+v", rep.Rows)
	}
	if got := rep.CSV(); !strings.HasPrefix(got, "servers,policy,") || strings.Count(got, "\n") != 1 {
		t.Errorf("pre-cancelled CSV = %q, want the header alone", got)
	}
}
