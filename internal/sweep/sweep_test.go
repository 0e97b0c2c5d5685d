package sweep

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
	points, err := Product(base, dims)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		key := p.Values["servers"] + "/" + p.Values["policy"]
		seen[key] = true
		if p.Values["servers"] == "16" && p.Config.Servers != 16 {
			t.Errorf("servers not applied: %+v", p.Values)
		}
		if p.Values["policy"] == "sais" && p.Config.Policy != irqsched.PolicySourceAware {
			t.Errorf("policy not applied: %+v", p.Values)
		}
	}
	if len(seen) != 4 {
		t.Errorf("combinations = %v", seen)
	}
	// Base must be untouched.
	if base.Servers != cluster.DefaultConfig().Servers {
		t.Error("Product mutated the base config")
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
		if err := setters[c.dim](&cfg, c.val); err != nil {
			t.Fatalf("%s=%s: %v", c.dim, c.val, err)
		}
		if !c.check() {
			t.Errorf("%s=%s not applied", c.dim, c.val)
		}
	}
	// Type errors surface.
	if err := setters["servers"](&cfg, "eight"); err == nil {
		t.Error("non-integer accepted")
	}
	if err := setters["policy"](&cfg, "bogus"); err == nil {
		t.Error("bad policy accepted")
	}
	if err := setters["shared"](&cfg, "maybe"); err == nil {
		t.Error("bad bool accepted")
	}
}

// TestLossPointsOwnTheirPlans checks the loss dimension writes each
// point's rate into a plan of its own, keeping the base plan's other
// faults and leaving the base plan untouched.
func TestLossPointsOwnTheirPlans(t *testing.T) {
	base := cluster.DefaultConfig()
	base.Faults = &faults.Plan{Corrupt: 0.01}
	points, err := Product(base, []Dim{{Name: "loss", Values: []string{"0.1", "0.2"}}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := points[0].Config.Faults, points[1].Config.Faults
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
	if err := setters["loss"](&cfg, "0.05"); err != nil || cfg.Faults == nil || cfg.Faults.Loss != 0.05 {
		t.Errorf("loss on a nil plan: %+v, %v", cfg.Faults, err)
	}
}

func TestCSVEndToEnd(t *testing.T) {
	base := cluster.DefaultConfig()
	base.Servers = 8
	base.BytesPerProc = 4 * units.MiB
	dims := []Dim{{Name: "policy", Values: []string{"irqbalance", "sais"}}}
	points, err := Product(base, dims)
	if err != nil {
		t.Fatal(err)
	}
	header := CSVHeader(dims)
	if !strings.HasPrefix(header, "policy,bandwidth_MBps") {
		t.Errorf("header = %q", header)
	}
	wantCols := strings.Count(header, ",") + 1
	for _, p := range points {
		row, err := CSVRow(dims, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(row, ",") + 1; got != wantCols {
			t.Errorf("row has %d columns, header %d: %q", got, wantCols, row)
		}
		if !strings.HasPrefix(row, p.Values["policy"]+",") {
			t.Errorf("row = %q", row)
		}
	}
}

func TestProductNoDims(t *testing.T) {
	points, err := Product(cluster.DefaultConfig(), nil)
	if err != nil || len(points) != 1 {
		t.Errorf("empty product = %d points, %v", len(points), err)
	}
}

// smallPoints builds a fast 2×2 product for orchestration tests.
func smallPoints(t *testing.T) ([]Dim, []Point) {
	t.Helper()
	base := cluster.DefaultConfig()
	base.BytesPerProc = 4 * units.MiB
	dims := []Dim{
		{Name: "servers", Values: []string{"4", "8"}},
		{Name: "policy", Values: []string{"irqbalance", "sais"}},
	}
	points, err := Product(base, dims)
	if err != nil {
		t.Fatal(err)
	}
	return dims, points
}

func TestRowsParallelMatchesSerial(t *testing.T) {
	dims, points := smallPoints(t)
	serial, err := Rows(context.Background(), dims, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(points) {
		t.Fatalf("rows = %d, want %d", len(serial), len(points))
	}
	for i, row := range serial {
		want, err := CSVRow(dims, points[i])
		if err != nil {
			t.Fatal(err)
		}
		if row != want {
			t.Errorf("row %d = %q, want the serial CSVRow %q", i, row, want)
		}
	}
	parallel, err := Rows(context.Background(), dims, points, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Errorf("parallel row %d differs:\n%q\nvs\n%q", i, parallel[i], serial[i])
		}
	}
}

func TestRowsCancelled(t *testing.T) {
	dims, points := smallPoints(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Rows(ctx, dims, points, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range rows {
		if r != "" {
			t.Errorf("row %d = %q after pre-cancelled context", i, r)
		}
	}
}
