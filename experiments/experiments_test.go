package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/metrics"
	"sais/internal/units"
)

func TestAllFiguresDefined(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("defined %d experiments, want 15 (10 paper + 5 extensions)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.figure == nil || e.figure.note == "" {
			t.Errorf("experiment %+v missing identity fields", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if len(e.Points) == 0 {
			t.Errorf("%s has no cells", e.ID)
		}
		if e.Seeds < 3 {
			t.Errorf("%s averages %d seeds; the paper used at least 3", e.ID, e.Seeds)
		}
		for _, pt := range e.Points {
			cfg := e.Config
			pt.Set(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s/%v: invalid config: %v", e.ID, pt.Values, err)
			}
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("figure12")
	if err != nil || e.ID != "figure12" {
		t.Errorf("ByID(figure12) = %v, %v", e.ID, err)
	}
	if _, err := ByID("figure99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestGridShape(t *testing.T) {
	e := Figure5()
	if len(e.Points) != 32 {
		t.Fatalf("figure5 points = %d, want 32 (4 transfers × 4 server counts × 2 policies)", len(e.Points))
	}
	// Each transfer size appears with each server count, under both
	// policies in turn.
	labels := map[string]bool{}
	for i, pt := range e.Points {
		labels[pt.Values[0]] = true
		if want := []string{"irqbalance", "sais"}[i%2]; pt.Values[1] != want {
			t.Errorf("point %d policy = %s, want %s", i, pt.Values[1], want)
		}
	}
	for _, want := range []string{"128KiB/8 nodes", "2MiB/48 nodes", "1MiB/32 nodes"} {
		if !labels[want] {
			t.Errorf("missing cell %q", want)
		}
	}
}

func TestMetricDirections(t *testing.T) {
	if !bandwidth.higher {
		t.Error("bandwidth direction")
	}
	for _, m := range []metric{missRate, utilization, unhalted} {
		if m.higher {
			t.Errorf("%v should be lower-is-better", m.col.head)
		}
	}
}

// runSlice runs a reduced version of a figure (one seed, cells lo to
// hi) — full figures run in the benchmark harness.
func runSlice(t *testing.T, e Study, lo, hi int) *Report {
	t.Helper()
	e.Seeds = 1
	e.Points = e.Points[2*lo : 2*min(hi, len(e.Points)/2)]
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// cells keeps the given cells of a figure, both policies of each.
func cells(e Study, idx ...int) []Point {
	var pts []Point
	for _, i := range idx {
		pts = append(pts, e.Points[2*i], e.Points[2*i+1])
	}
	return pts
}

func TestFigure5SAIsWinsEverywhere(t *testing.T) {
	rep := runSlice(t, Figure5(), 8, 12) // the 1MiB row
	for _, c := range rep.pairs() {
		if c.change <= 0 {
			t.Errorf("%s: SAIs did not win (%.2f%%)", c.label, c.change*100)
		}
		if c.change > 0.6 {
			t.Errorf("%s: speed-up %.2f%% implausibly large", c.label, c.change*100)
		}
	}
	best, _ := rep.BestChange()
	if best < 0.10 {
		t.Errorf("peak 3-Gbit speed-up %.2f%% too small (paper: 23.57%%)", best*100)
	}
}

func TestOneGigCompressesGain(t *testing.T) {
	g3 := runSlice(t, Figure5(), 8, 12)
	g1 := runSlice(t, Figure5OneGig(), 8, 12)
	best3, _ := g3.BestChange()
	best1, _ := g1.BestChange()
	if best1 >= best3 {
		t.Errorf("1-Gbit peak %.2f%% not below 3-Gbit peak %.2f%%", best1*100, best3*100)
	}
	if best1 > 0.08 {
		t.Errorf("1-Gbit peak %.2f%% exceeds the NIC-bound regime (paper: 6.05%%)", best1*100)
	}
}

func TestFigure7MissRateReduction(t *testing.T) {
	rep := runSlice(t, Figure7(), 8, 12)
	for _, c := range rep.pairs() {
		if c.change < 0.2 || c.change > 0.7 {
			t.Errorf("%s: miss-rate reduction %.1f%% outside the paper's ≈40%% band", c.label, c.change*100)
		}
	}
}

func TestFigure11UnhaltedReduction(t *testing.T) {
	rep := runSlice(t, Figure11(), 8, 12)
	for _, c := range rep.pairs() {
		if c.change <= 0.15 {
			t.Errorf("%s: unhalted reduction %.1f%% too small (paper: up to 48.57%%)", c.label, c.change*100)
		}
	}
}

func TestFigure12PeaksThenDecays(t *testing.T) {
	e := Figure12()
	e.Seeds = 1
	e.Points = cells(e, 1, 5) // 8 clients vs 48 clients
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	at8, at48 := rep.pairs()[0].change, rep.pairs()[1].change
	if at8 <= at48 {
		t.Errorf("speed-up at 8 clients (%.2f%%) not above 48 clients (%.2f%%)", at8*100, at48*100)
	}
	if at8 <= 0 {
		t.Errorf("no gain at the paper's peak point: %.2f%%", at8*100)
	}
}

func TestFigure14NoBottleneckGain(t *testing.T) {
	e := Figure14()
	e.Seeds = 1
	e.Points = cells(e, 2) // 4 apps
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := rep.pairs()[0]
	if c.change < 0.3 || c.change > 0.9 {
		t.Errorf("no-bottleneck speed-up %.2f%% outside the paper's ≈53%% region", c.change*100)
	}
	// Bandwidth must far exceed the 3-Gbit figures.
	if got := c.treat.Stats[metricKey].Mean(); got < 800 {
		t.Errorf("treatment bandwidth %.0f MB/s too low for the memory-rate configuration", got)
	}
}

func TestReportTable(t *testing.T) {
	table := runSlice(t, Figure5(), 0, 1).Table()
	for _, want := range []string{"figure5", "irqbalance", "sais", "peak change", "128KiB/8 nodes"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestEmptyExperimentRejected(t *testing.T) {
	e := Study{ID: "empty", Seeds: 1}
	if _, err := e.Run(); err == nil {
		t.Error("empty experiment ran")
	}
}

func TestEvalConfigScale(t *testing.T) {
	cfg := evalConfig(rate3G)
	if cfg.BytesPerProc < 16*units.MiB {
		t.Errorf("per-proc budget %v too small for steady state", cfg.BytesPerProc)
	}
}

func TestWritesControlTies(t *testing.T) {
	c := runSlice(t, WritesControl(), 1, 2).pairs()[0] // 16 nodes
	if c.change > 0.05 || c.change < -0.05 {
		t.Errorf("write-path change %.2f%%; policies should tie", c.change*100)
	}
}

func TestHybridRetainsGain(t *testing.T) {
	c := runSlice(t, HybridComparison(), 1, 2).pairs()[0] // 16 nodes
	if c.change < 0.08 {
		t.Errorf("hybrid gain %.2f%% too small; should retain most of SAIs' gain", c.change*100)
	}
}

func TestFlowHashLosesToSAIs(t *testing.T) {
	c := runSlice(t, FlowHashComparison(), 1, 2).pairs()[0]
	if c.change <= 0 {
		t.Errorf("SAIs did not beat flow-affinity: %.2f%%", c.change*100)
	}
}

func TestReportChart(t *testing.T) {
	chart, err := runSlice(t, Figure5(), 0, 2).Chart()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figure5", "irqbalance", "sais", "128KiB/8 nodes"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	if _, err := (&Report{ID: "degraded"}).Chart(); err == nil {
		t.Error("a study that is not a figure charted")
	}
}

func TestReportCSV(t *testing.T) {
	e := Figure5()
	e.Points = cells(e, 0)
	e.Seeds = 2
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header + 1 row:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[1], "figure5,") {
		t.Errorf("row = %q", lines[1])
	}
	if got := strings.Count(lines[1], ","); got != 13 {
		t.Errorf("row has %d commas, want 13", got)
	}
}

func TestWriteHTML(t *testing.T) {
	rep := runSlice(t, Figure5(), 0, 2)
	var buf strings.Builder
	if err := WriteHTML(&buf, []*Report{rep}, "2012-05-21 (injected)"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "figure5", "irqbalance", "sais", "128KiB/8 nodes", "peak change", "2012-05-21 (injected)"} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	// With the timestamp injected, the report is a pure function of its
	// inputs: rendering the same reports again must be byte-identical.
	var again strings.Builder
	if err := WriteHTML(&again, []*Report{rep}, "2012-05-21 (injected)"); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("WriteHTML is not byte-stable across identical inputs")
	}
	if err := WriteHTML(&again, []*Report{{ID: "degraded"}}, "now"); err == nil {
		t.Error("WriteHTML rendered a study that is not a figure")
	}
}

// failingWriter errors on every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteHTMLPropagatesWriterError(t *testing.T) {
	rep := &Report{ID: "x", Title: "x", figure: &figure{metric: bandwidth}}
	if err := WriteHTML(failingWriter{}, []*Report{rep}, "now"); err == nil {
		t.Error("WriteHTML to a failing writer returned nil")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	e := Figure5()
	e.Seeds = 1
	e.Points = e.Points[:8]
	seq, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = 4
	par, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seq.pairs() {
		p := par.pairs()[i]
		if s.label != p.label || s.change != p.change ||
			s.base.Stats[metricKey].Mean() != p.base.Stats[metricKey].Mean() ||
			s.treat.Stats[metricKey].Mean() != p.treat.Stats[metricKey].Mean() {
			t.Errorf("cell %d differs: %+v vs %+v", i, s, p)
		}
	}
}

// tinyExperiment is a fast synthetic figure for orchestration tests:
// `cells` small independent cells over the default policies.
func tinyExperiment(cells int) Study {
	cfg := cluster.DefaultConfig()
	cfg.BytesPerProc = 4 * units.MiB
	var cs []Point
	for i := range cells {
		cs = append(cs, cell(fmt.Sprintf("cell-%d", i), func(c *cluster.Config) { c.Servers = 4 + 2*i }))
	}
	e := newFigure("tiny", "orchestration test experiment", cfg, cs, figure{bandwidth, irqbalance, sais, ""})
	e.Seeds = 2
	return e
}

// figureRow is a one-seed figure row with the given metric value.
func figureRow(label, policy string, v float64) Row {
	s := &metrics.Summary{}
	s.Add(v)
	return Row{Point: Point{Values: []string{label, policy}}, Stats: map[string]*metrics.Summary{metricKey: s}}
}

func TestBestChangeAllRegress(t *testing.T) {
	rep := &Report{figure: &figure{metric: bandwidth}}
	for _, c := range []struct {
		label string
		treat float64
	}{{"a", 0.5}, {"b", 0.875}, {"c", 0.75}} {
		rep.Rows = append(rep.Rows, figureRow(c.label, "irqbalance", 1), figureRow(c.label, "sais", c.treat))
	}
	best, label := rep.BestChange()
	if label != "b" || best != -0.125 {
		t.Errorf("BestChange = (%v, %q), want the least-bad cell (-0.125, \"b\")", best, label)
	}
	if _, label := (&Report{}).BestChange(); label != "" {
		t.Errorf("empty report returned label %q", label)
	}
}

// TestFirstCellErrorCancelsRest pins the orchestration error path: the
// first failing row must stop the figure, later queued rows are never
// executed, and the report keeps only the cells both of whose rows
// completed before the failure.
func TestFirstCellErrorCancelsRest(t *testing.T) {
	e := tinyExperiment(6)
	e.Seeds = 1
	e.Points[5].Set = func(c *cluster.Config) { c.Servers = 0 } // cell-2's treatment fails Config.Validate
	rep, err := e.RunContext(context.Background())
	if err == nil {
		t.Fatal("experiment with an invalid cell succeeded")
	}
	if !strings.Contains(err.Error(), "cell-2") {
		t.Errorf("error %q does not name the failing cell", err)
	}
	if len(rep.Rows) != 5 {
		t.Errorf("report kept %d rows after the failure at index 5, want exactly 5", len(rep.Rows))
	}
	pairs := rep.pairs()
	if len(pairs) != 2 || pairs[0].label != "cell-0" || pairs[1].label != "cell-1" {
		t.Errorf("partial report cells = %+v, want the two completed cells", pairs)
	}
}

// TestParallelCSVByteIdentical is the determinism property the runner
// guarantees: the same experiment rendered from a serial and a
// many-worker run must be byte-identical.
func TestParallelCSVByteIdentical(t *testing.T) {
	e := tinyExperiment(5)
	serial, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = 8
	parallel, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Errorf("Parallel=8 CSV differs from serial:\n%s\nvs\n%s", p, s)
	}
	if s, p := serial.Table(), parallel.Table(); s != p {
		t.Errorf("Parallel=8 table differs from serial:\n%s\nvs\n%s", p, s)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := tinyExperiment(3)
	rep, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Rows) != 0 {
		t.Errorf("pre-cancelled run reported rows: %+v", rep)
	}
}
