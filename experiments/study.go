package experiments

// Studies: the robustness questions the paper's healthy-cluster
// evaluation leaves open, each asked the way the paper asks its own, as
// a grid of one varied condition crossed with the steering policies.
// The loss-rate sweep asks whether source-aware steering still pays off
// when frames are lost; crash-and-recover whether it rides through a
// server outage as cleanly as the baselines; graceful degradation what
// a permanent server loss costs under hard-fail versus per-transfer
// deadlines; noisy neighbor what analytic background load costs the
// foreground cohort; and the policy matrix how every registered policy
// fares across a small workload family. Every study is a deterministic
// function of its configuration and seeds: rendering a report twice
// yields byte-identical text.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/runner"
	"sais/internal/units"
)

// Study is a grid of points, each run over seeds. A point's run is the
// base Config with the point's change applied, at seeds Config.Seed
// through Config.Seed+Seeds-1 of that config. The paper's figures, the
// robustness studies and saisweep's sweeps are all studies.
type Study struct {
	// ID names the study on the command line (-degraded, -fig 5, ...).
	ID    string
	Title string
	// Points are the grid in row order, each carrying one value per key
	// column; the policy is one of the keys.
	Points []Point
	// Config is the base cluster; each point's Set is applied per run.
	Config cluster.Config
	// Seeds is the number of runs per point, at least 1.
	Seeds int
	// Parallel runs up to this many points concurrently.
	Parallel int

	keys    []column // the point's key columns, in Point.Values order
	columns []column // the measured columns
	figure  *figure  // set for a figure: rendered as baseline vs treatment pairs
}

// Point is one cell of a study's grid: its key values and the change
// that turns the study's base config into the point's.
type Point struct {
	// Values holds one value per key column as the CSV prints it;
	// Labels, when set, as the table prints it.
	Values, Labels []string
	// Set applies the change. Points run concurrently, so Set must not
	// write to anything the base config shares, such as its fault plan.
	Set func(*cluster.Config)
}

// label is the point's i-th key value as the table prints it.
func (p Point) label(i int) string {
	if p.Labels != nil {
		return p.Labels[i]
	}
	return p.Values[i]
}

// Row is one completed point of a study.
type Row struct {
	Point Point
	// Stats summarizes every measured column over the seeds, keyed by
	// the column's CSV header.
	Stats map[string]*metrics.Summary
}

// value is column c's value in the row: the sum over the seeds for an
// event count, the mean for everything else.
func (r Row) value(c column) float64 {
	s := r.Stats[c.csv]
	if c.form == total {
		return math.Round(s.Mean() * float64(s.N()))
	}
	return s.Mean()
}

// Report is a completed study, its rows in point order.
type Report struct {
	ID, Title string
	Rows      []Row
	keys      []column
	columns   []column
	figure    *figure
}

// form is how a column prints and aggregates over seeds.
type form int

const (
	fixed1   form = iota // one decimal in the table
	fixed3               // three decimals in the table
	percent              // a ratio, printed as a percentage in the table
	total                // an event count, summed over the seeds
	integer              // a count averaged over the seeds
	duration             // a units.Time
	size                 // a units.Bytes
	dec2                 // two decimals
	dec4                 // four decimals
	dec5                 // five decimals
)

// column is one key or measured column of a study.
type column struct {
	head  string // table header
	csv   string // CSV header and Row.Stats key
	width int    // table width; 0 leaves a measured column out of the table
	form  form
	value func(*cluster.Result) float64
}

// cell renders v for the table.
func (c column) cell(v float64) string {
	switch c.form {
	case fixed1:
		return fmt.Sprintf("%.1f", v)
	case fixed3:
		return fmt.Sprintf("%.3f", v)
	case percent:
		return fmt.Sprintf("%.1f%%", v*100)
	case duration:
		return units.Time(v).String()
	case size:
		return units.Bytes(v).String()
	default:
		return c.csvCell(v)
	}
}

// csvCell renders v for the CSV.
func (c column) csvCell(v float64) string {
	switch c.form {
	case fixed1, fixed3, percent:
		return fmt.Sprintf("%.6f", v)
	case dec2:
		return fmt.Sprintf("%.2f", v)
	case dec4:
		return fmt.Sprintf("%.4f", v)
	case dec5:
		return fmt.Sprintf("%.5f", v)
	default:
		return fmt.Sprintf("%d", int64(v))
	}
}

// Run executes the study.
func (s Study) Run() (*Report, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the study under ctx on the shared runner engine,
// rows landing at fixed indices so the report is identical regardless
// of worker count. The first point error, or ctx ending, stops the
// rest; the returned report still carries the rows completed so far.
func (s Study) RunContext(ctx context.Context) (*Report, error) {
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("experiments: %s has no points", s.ID)
	}
	if s.Seeds < 1 {
		return nil, fmt.Errorf("experiments: %s runs %d seeds, want at least 1", s.ID, s.Seeds)
	}
	//lint:goroutine runner.Map joins all workers and returns rows in point order; each row is seed-deterministic
	rows, err := runner.Map(ctx, len(s.Points), runner.Options{Workers: s.Parallel},
		func(ctx context.Context, i int) (Row, error) {
			return s.runRow(ctx, s.Points[i])
		})
	rep := &Report{ID: s.ID, Title: s.Title, keys: s.keys, columns: s.columns, figure: s.figure}
	for _, row := range rows {
		if row.Stats != nil {
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, err
}

// runRow measures one point over the seeds.
func (s Study) runRow(ctx context.Context, pt Point) (Row, error) {
	cfg := s.Config
	if pt.Set != nil {
		pt.Set(&cfg)
	}
	first := cfg.Seed
	row := Row{Point: pt, Stats: make(map[string]*metrics.Summary, len(s.columns))}
	for _, c := range s.columns {
		row.Stats[c.csv] = &metrics.Summary{}
	}
	for run := range s.Seeds {
		cfg.Seed = first + uint64(run)
		res, err := cluster.RunContext(ctx, cfg)
		if err != nil {
			return Row{}, fmt.Errorf("%s %s: %w", s.ID, strings.Join(pt.Values, "/"), err)
		}
		for _, c := range s.columns {
			row.Stats[c.csv].Add(c.value(res))
		}
	}
	return row, nil
}

// cross crosses every point with every policy, point-major, the policy
// the last key.
func cross(points []Point, policies []irqsched.PolicyKind) []Point {
	var out []Point
	for _, pt := range points {
		for _, pol := range policies {
			q := Point{
				Values: append(slices.Clip(pt.Values), pol.String()),
				Set: func(c *cluster.Config) {
					if pt.Set != nil {
						pt.Set(c)
					}
					c.Policy = pol
				},
			}
			if pt.Labels != nil {
				q.Labels = append(slices.Clip(pt.Labels), pol.String())
			}
			out = append(out, q)
		}
	}
	return out
}

// Table renders the report as a fixed-width text table.
func (r *Report) Table() string {
	if r.figure != nil {
		return r.figureTable()
	}
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	r.tableLine(&b, func(i int) string { return r.keys[i].head }, func(c column) string { return c.head })
	for _, row := range r.Rows {
		r.tableLine(&b, row.Point.label, func(c column) string { return c.cell(row.value(c)) })
	}
	return b.String()
}

// tableLine writes one table line: the keys left-aligned, then every
// table column right-aligned to its width.
func (r *Report) tableLine(b *strings.Builder, key func(int) string, text func(column) string) {
	for i, k := range r.keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%-*s", k.width, key(i))
	}
	for _, c := range r.columns {
		if c.width > 0 {
			fmt.Fprintf(b, " %*s", c.width, text(c))
		}
	}
	b.WriteByte('\n')
}

// CSV renders the report as comma-separated rows with a header line.
func (r *Report) CSV() string {
	if r.figure != nil {
		return r.figureCSV()
	}
	var b strings.Builder
	r.csvLine(&b, func(i int) string { return r.keys[i].csv }, func(c column) string { return c.csv })
	for _, row := range r.Rows {
		r.csvLine(&b, func(i int) string { return row.Point.Values[i] }, func(c column) string { return c.csvCell(row.value(c)) })
	}
	return b.String()
}

// csvLine writes one CSV line: the keys, then every column.
func (r *Report) csvLine(b *strings.Builder, key func(int) string, text func(column) string) {
	fields := make([]string, 0, len(r.keys)+len(r.columns))
	for i := range r.keys {
		fields = append(fields, key(i))
	}
	for _, c := range r.columns {
		fields = append(fields, text(c))
	}
	b.WriteString(strings.Join(fields, ",") + "\n")
}

// --- the columns the studies share ---

var policyKey = column{head: "policy", csv: "policy", width: 12}

func mbps(r *cluster.Result) float64          { return float64(r.Bandwidth) / float64(units.MBps) }
func runTime(r *cluster.Result) float64       { return float64(r.Duration) }
func failedOps(r *cluster.Result) float64     { return float64(r.Faults.FailedOps) }
func stripsRetried(r *cluster.Result) float64 { return float64(r.Faults.StripsRetried) }

// goodput is delivered bytes over offered bytes.
func goodput(r *cluster.Result) float64 {
	if r.Faults.OfferedBytes == 0 {
		return 0
	}
	return float64(r.Faults.GoodputBytes) / float64(r.Faults.OfferedBytes)
}

// The strip-latency percentiles in microseconds, as the policy matrix
// and the figures report them.
var (
	stripP50us = column{"P50 (µs)", "strip_p50_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP50) }}
	stripP95us = column{"P95 (µs)", "strip_p95_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP95) }}
	stripP99us = column{"P99 (µs)", "strip_p99_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP99) }}
)

func us(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }

// --- the study constructors ---

// Studies returns every robustness study at its defaults, in
// command-line order.
func Studies() []Study {
	return []Study{Degraded(), CrashAndRecover(), GracefulDegradation(), NoisyNeighbor(), PolicyMatrix()}
}

// DegradedPolicies is the policy set of the fault studies and noisy
// neighbor: the paper's two protagonists plus naive round-robin as a
// floor.
var DegradedPolicies = []irqsched.PolicyKind{
	irqsched.PolicySourceAware,
	irqsched.PolicyIrqbalance,
	irqsched.PolicyRoundRobin,
}

// LossPoint is a frame-loss rate on the fabric. Each run gets a fault
// plan of its own, keeping the base plan's other faults.
func LossPoint(loss float64) Point {
	return Point{
		Values: []string{fmt.Sprintf("%g", loss)},
		Labels: []string{fmt.Sprintf("%g%%", loss*100)},
		Set: func(c *cluster.Config) {
			p := c.Faults.Clone()
			if p == nil {
				p = &faults.Plan{}
			}
			p.Loss = loss
			c.Faults = p
		},
	}
}

// Degraded returns the loss-rate sweep: read latency (mean and P99) and
// goodput across frame loss, with the client retry machinery absorbing
// the loss, on the §V testbed scaled down to 8 servers for turnaround.
// The loss rates default to 0, 0.1, 1 and 5 %.
func Degraded(losses ...float64) Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	// The timeout sits above the healthy P99 so the 0% row shows no
	// spurious retries; lossy rows still converge well within 12 tries.
	cfg.RetryTimeout = 40 * units.Millisecond
	cfg.MaxRetries = 12
	if len(losses) == 0 {
		losses = []float64{0, 0.001, 0.01, 0.05}
	}
	var points []Point
	for _, loss := range losses {
		points = append(points, LossPoint(loss))
	}
	return Study{
		ID:     "degraded",
		Title:  "Degraded mode: read latency vs frame loss per policy",
		Points: cross(points, DegradedPolicies),
		Config: cfg,
		Seeds:  3,
		keys:   []column{{head: "loss", csv: "loss_rate", width: 8}, policyKey},
		columns: []column{
			// Latencies are of read transfers in milliseconds; abandoned
			// transfers contribute their time-to-failure.
			{"mean lat (ms)", "latency_mean_ms", 14, fixed3, func(r *cluster.Result) float64 { return float64(r.LatencyMean) / 1e6 }},
			{"P99 lat (ms)", "latency_p99_ms", 14, fixed3, func(r *cluster.Result) float64 { return float64(r.LatencyP99) / 1e6 }},
			{"MB/s", "bandwidth_mbps", 12, fixed1, mbps},
			{"goodput", "goodput", 9, percent, goodput},
			{"failed", "failed_ops", 8, total, failedOps},
			{"retried", "strips_retried", 9, total, stripsRetried},
			{"", "frames_dropped", 0, total, func(r *cluster.Result) float64 { return float64(r.Faults.FramesDropped) }},
		},
	}
}

// CrashAndRecover returns the chaos study: server 0 crashes shortly
// into the run and revives 30 ms later while clients ride through on
// retries. The plan also degrades the fabric 2× during the outage, the
// way a real switch behaves while rerouting around a dead port. The
// policy is the study's only key; its timeline lives in Config.Faults.
func CrashAndRecover() Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 12
	crashAt := 5 * units.Millisecond
	reviveAt := crashAt + 30*units.Millisecond
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: crashAt, Kind: faults.KindCrash, Server: 0},
		{At: crashAt, Kind: faults.KindDegradeLink, Factor: 2},
		{At: reviveAt, Kind: faults.KindRevive, Server: 0},
		{At: reviveAt, Kind: faults.KindDegradeLink, Factor: 1},
	}}
	return Study{
		ID:     "chaos",
		Title:  "Chaos: crash server 0 at 5ms, revive at 35ms, degraded fabric during the outage",
		Points: cross([]Point{{}}, DegradedPolicies),
		Config: cfg,
		Seeds:  1,
		keys:   []column{policyKey},
		columns: []column{
			{"duration", "duration_ns", 12, duration, runTime},
			{"MB/s", "bandwidth_mbps", 10, fixed1, mbps},
			{"downtime", "downtime_ns", 12, duration, func(r *cluster.Result) float64 {
				var down units.Time
				for _, d := range r.Faults.ServerDowntime {
					down += d
				}
				return float64(down)
			}},
			{"recovery", "recovery_ns", 12, duration, func(r *cluster.Result) float64 { return float64(r.Faults.RecoveryTime) }},
			{"retried", "strips_retried", 8, total, stripsRetried},
			{"failed", "failed_ops", 7, total, failedOps},
			{"", "crashes", 0, total, func(r *cluster.Result) float64 { return float64(r.Faults.Crashes) }},
		},
	}
}

// deadlinePoint is a per-transfer deadline; 0 is the hard-fail posture,
// where transfers burn their whole retry budget and are abandoned.
func deadlinePoint(d units.Time) Point {
	name := "none"
	if d > 0 {
		name = d.String()
	}
	return Point{
		Values: []string{fmt.Sprintf("%d", int64(d))},
		Labels: []string{name},
		Set:    func(c *cluster.Config) { c.TransferDeadline = d },
	}
}

// GracefulDegradation returns the graceful-degradation study: server 0
// is lost for good at 2 ms, and the hard-fail posture is compared with
// per-transfer deadlines, under which the client returns a typed
// partial result carrying every strip that did land. The table answers
// how many bytes each posture salvages and what that costs in run time.
func GracefulDegradation() Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 10 * units.Millisecond
	cfg.MaxRetries = 8
	cfg.RetryBackoff = 2
	cfg.RetryJitter = 0.1
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: 2 * units.Millisecond, Kind: faults.KindCrash, Server: 0},
	}}
	deadlines := []Point{deadlinePoint(0), deadlinePoint(40 * units.Millisecond), deadlinePoint(80 * units.Millisecond)}
	return Study{
		ID:     "graceful",
		Title:  "Graceful degradation: permanent server loss, hard-fail vs per-transfer deadlines",
		Points: cross(deadlines, DegradedPolicies),
		Config: cfg,
		Seeds:  1,
		keys:   []column{{head: "deadline", csv: "deadline_ns", width: 10}, policyKey},
		columns: []column{
			{"duration", "duration_ns", 12, duration, runTime},
			{"MB/s", "bandwidth_mbps", 10, fixed1, mbps},
			{"goodput", "goodput", 9, percent, goodput},
			{"failed", "failed_ops", 7, total, failedOps},
			{"partial", "partial_ops", 8, total, func(r *cluster.Result) float64 { return float64(r.Faults.PartialOps) }},
			{"partial bytes", "partial_bytes", 14, size, func(r *cluster.Result) float64 { return float64(r.Faults.PartialBytes) }},
			{"retries", "retries", 8, total, func(r *cluster.Result) float64 { return float64(r.Retries) }},
		},
	}
}

// loadPoint scales every tenant's per-user rate by load. Load 0 is the
// classic baseline: BackgroundUsers and TenantMix are cleared entirely,
// not just silenced.
func loadPoint(load float64) Point {
	return Point{Values: []string{fmt.Sprintf("%g", load)}, Set: func(c *cluster.Config) {
		if load == 0 {
			c.BackgroundUsers = 0
			c.TenantMix = nil
			return
		}
		c.TenantMix = slices.Clone(c.TenantMix)
		for j := range c.TenantMix {
			c.TenantMix[j].PerUserRate = units.Rate(float64(c.TenantMix[j].PerUserRate) * load)
		}
	}}
}

// NoisyNeighbor returns the noisy-neighbor study: 4 foreground clients
// and 8 servers share the cluster with half a million background users
// in a streaming-plus-burst mix, swept from silence to twice the
// nominal rate. Background strips are never materialized, so the strip
// percentiles are exactly the foreground cohort's.
func NoisyNeighbor() Study {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 4
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	cfg.BackgroundUsers = 500000
	cfg.TenantMix = []flowsim.TenantShare{
		{Name: "stream", Share: 0.7, PerUserRate: 4000, Colocate: 0.15},
		{Name: "burst", Share: 0.3, PerUserRate: 5000, Shape: "burst",
			Period: 10 * units.Millisecond, Duty: 0.3, HotServers: 4},
	}
	loads := []Point{loadPoint(0), loadPoint(0.5), loadPoint(1), loadPoint(2)}
	return Study{
		ID:     "noisy",
		Title:  "Noisy neighbor: background load vs foreground strip latency",
		Points: cross(loads, DegradedPolicies),
		Config: cfg,
		Seeds:  1,
		keys:   []column{{head: "load", csv: "load", width: 6}, policyKey},
		columns: []column{
			{"duration", "duration_ns", 12, duration, runTime},
			{"MB/s", "bandwidth_mbps", 10, fixed1, mbps},
			{"strip p50", "strip_p50_ns", 12, duration, func(r *cluster.Result) float64 { return float64(r.StripLatencyP50) }},
			{"strip p95", "strip_p95_ns", 12, duration, func(r *cluster.Result) float64 { return float64(r.StripLatencyP95) }},
			{"strip p99", "strip_p99_ns", 12, duration, func(r *cluster.Result) float64 { return float64(r.StripLatencyP99) }},
			{"bg offered", "bg_offered_bytes", 12, size, func(r *cluster.Result) float64 { return float64(r.BackgroundOfferedBytes) }},
			{"bg served", "bg_served_bytes", 12, size, func(r *cluster.Result) float64 { return float64(r.BackgroundServedBytes) }},
		},
	}
}

// MatrixWorkloads is the policy matrix's workload family: the healthy
// sequential read, the readahead-defeating random read, a stalling
// server (the straggler-aware client's target case), and the parallel
// write (where returned acks carry no data and the policies should tie).
var MatrixWorkloads = []Point{
	{Values: []string{"seq-read"}},
	{Values: []string{"rand-read"}, Set: func(c *cluster.Config) { c.RandomAccess = true }},
	{Values: []string{"stall"}, Set: func(c *cluster.Config) {
		c.Faults = faults.Merge(c.Faults, &faults.Plan{
			Stalls: []faults.Stall{{Server: -1, Rate: 0.25, Mean: 2 * units.Millisecond}},
		})
	}},
	{Values: []string{"write"}, Set: func(c *cluster.Config) { c.WriteWorkload = true }},
}

// PolicyMatrix returns the registry's showcase: every registered
// steering policy against MatrixWorkloads on the §V testbed scaled down
// for turnaround. The policy list comes from the irqsched registry, so
// a newly registered baseline appears without touching this file. The
// columns are what the literature baselines differ on: strip-latency
// percentiles in microseconds (where Flow Director's splits and
// irqbalance's migrations show up) and the Wu et al. reorder counters,
// which must be zero for every policy that keeps a flow on one core.
func PolicyMatrix() Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	return Study{
		ID:     "policymatrix",
		Title:  "Policy matrix: strip latency and reordering per policy and workload",
		Points: cross(MatrixWorkloads, irqsched.Kinds()),
		Config: cfg,
		Seeds:  1,
		keys:   []column{{head: "workload", csv: "workload", width: 10}, policyKey},
		columns: []column{
			{"MB/s", "bandwidth_mbps", 10, fixed1, mbps},
			stripP50us, stripP95us, stripP99us,
			{"reordered", "reordered_frames", 10, total, func(r *cluster.Result) float64 { return float64(r.ReorderedFrames) }},
			{"depth", "reorder_depth_max", 7, integer, func(r *cluster.Result) float64 { return float64(r.ReorderDepthMax) }},
		},
	}
}

// Sweep returns the one-seed study saisweep runs: points over base, one
// key column per name, then the run's headline measurements. It renders
// only as CSV.
func Sweep(base cluster.Config, names []string, points []Point) Study {
	keys := make([]column, len(names))
	for i, n := range names {
		keys[i] = column{csv: n}
	}
	return Study{
		ID:     "sweep",
		Points: points,
		Config: base,
		Seeds:  1,
		keys:   keys,
		columns: []column{
			{csv: "bandwidth_MBps", form: dec2, value: func(r *cluster.Result) float64 { return float64(r.Bandwidth) / 1e6 }},
			{csv: "miss_rate", form: dec5, value: func(r *cluster.Result) float64 { return r.CacheMissRate }},
			{csv: "cpu_util", form: dec5, value: func(r *cluster.Result) float64 { return r.CPUUtilization }},
			{csv: "unhalted_cycles", form: integer, value: func(r *cluster.Result) float64 { return float64(r.UnhaltedCycles) }},
			{csv: "migrated_lines", form: integer, value: func(r *cluster.Result) float64 { return float64(r.RemoteLines) }},
			{csv: "nic_busy", form: dec4, value: func(r *cluster.Result) float64 { return r.ClientNICBusy }},
			{csv: "disk_busy", form: dec4, value: func(r *cluster.Result) float64 { return r.DiskBusy }},
		},
	}
}
