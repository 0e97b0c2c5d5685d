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
	"slices"
	"strings"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/runner"
	"sais/internal/sweep"
	"sais/internal/units"
)

// Study is a policy comparison across one varied condition: every point
// crossed with every policy, each cell run over seeds 1..Seeds.
type Study struct {
	// ID names the study on the command line (-degraded, -chaos, ...).
	ID    string
	Title string
	// Points are the varied condition, in row order.
	Points   []Point
	Policies []irqsched.PolicyKind
	// Config is the base cluster; the point's Set, the policy and the
	// seed are applied per run.
	Config cluster.Config
	// Seeds is the number of runs per cell; below 1 means 3.
	Seeds int
	// Parallel runs up to this many cells concurrently.
	Parallel int
	// Progress, if non-nil, is called after each cell completes.
	Progress func(done, total int)

	key     column // the point column; a study with a zero key has one unnamed point
	columns []column
}

// Point is one named change to a study's base config.
type Point struct {
	Name string // as the table prints it
	CSV  string // as the CSV prints it
	// Set applies the change; nil runs the base config. Cells run
	// concurrently, so Set must not write to anything the base config
	// shares, such as its fault plan.
	Set func(*cluster.Config)
}

// Row is one (point, policy) cell of a completed study.
type Row struct {
	Point  Point
	Policy string
	// Values holds every column keyed by its CSV header: summed over
	// the seeds for event totals, averaged for everything else.
	Values map[string]float64
}

// StudyReport is a completed study, its rows point-major.
type StudyReport struct {
	Title   string
	Rows    []Row
	key     column
	columns []column
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
)

// column is one measured column of a study.
type column struct {
	head  string // table header
	csv   string // CSV header and Row.Values key
	width int    // table width; 0 leaves the column out of the table
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
		return fmt.Sprintf("%d", int64(v))
	}
}

// csvCell renders v for the CSV.
func (c column) csvCell(v float64) string {
	switch c.form {
	case fixed1, fixed3, percent:
		return fmt.Sprintf("%.6f", v)
	default:
		return fmt.Sprintf("%d", int64(v))
	}
}

// Run executes the study.
func (s Study) Run() (*StudyReport, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the study under ctx on the shared runner engine,
// rows landing at fixed indices so the report is identical regardless
// of worker count. The first cell error, or ctx ending, stops the rest;
// the returned report still carries the rows completed so far.
func (s Study) RunContext(ctx context.Context) (*StudyReport, error) {
	if len(s.Points) == 0 || len(s.Policies) == 0 {
		return nil, fmt.Errorf("experiments: study %q needs points and policies", s.ID)
	}
	seeds := s.Seeds
	if seeds < 1 {
		seeds = 3
	}
	//lint:goroutine runner.Map joins all workers and returns rows in point order; per-cell output is seed-deterministic
	rows, err := runner.Map(ctx, len(s.Points)*len(s.Policies),
		runner.Options{Workers: s.Parallel, OnProgress: s.Progress},
		func(ctx context.Context, i int) (Row, error) {
			return s.runRow(ctx, s.Points[i/len(s.Policies)], s.Policies[i%len(s.Policies)], seeds)
		})
	rep := &StudyReport{Title: s.Title, key: s.key, columns: s.columns}
	for _, row := range rows {
		if row.Values != nil {
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, err
}

// runRow measures one (point, policy) cell over the seeds.
func (s Study) runRow(ctx context.Context, pt Point, pol irqsched.PolicyKind, seeds int) (Row, error) {
	means := make([]metrics.Summary, len(s.columns))
	sums := make([]float64, len(s.columns))
	for run := 1; run <= seeds; run++ {
		cfg := s.Config
		if pt.Set != nil {
			pt.Set(&cfg)
		}
		cfg.Policy = pol
		cfg.Seed = uint64(run)
		res, err := cluster.RunContext(ctx, cfg)
		if err != nil {
			return Row{}, fmt.Errorf("%s/%s: %w", strings.TrimSpace(s.ID+" "+pt.Name), pol, err)
		}
		for i, c := range s.columns {
			v := c.value(res)
			means[i].Add(v)
			sums[i] += v
		}
	}
	row := Row{Point: pt, Policy: pol.String(), Values: make(map[string]float64, len(s.columns))}
	for i, c := range s.columns {
		row.Values[c.csv] = means[i].Mean()
		if c.form == total {
			row.Values[c.csv] = sums[i]
		}
	}
	return row, nil
}

// Table renders the report as a fixed-width text table.
func (r *StudyReport) Table() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	r.tableLine(&b, r.key.head, "policy", func(c column) string { return c.head })
	for _, row := range r.Rows {
		r.tableLine(&b, row.Point.Name, row.Policy, func(c column) string { return c.cell(row.Values[c.csv]) })
	}
	return b.String()
}

// tableLine writes one table line: the point and policy left-aligned,
// then every table column right-aligned to its width.
func (r *StudyReport) tableLine(b *strings.Builder, point, policy string, text func(column) string) {
	if r.key.width > 0 {
		fmt.Fprintf(b, "%-*s ", r.key.width, point)
	}
	fmt.Fprintf(b, "%-12s", policy)
	for _, c := range r.columns {
		if c.width > 0 {
			fmt.Fprintf(b, " %*s", c.width, text(c))
		}
	}
	b.WriteByte('\n')
}

// CSV renders the report as comma-separated rows with a header line.
func (r *StudyReport) CSV() string {
	var b strings.Builder
	r.csvLine(&b, r.key.csv, "policy", func(c column) string { return c.csv })
	for _, row := range r.Rows {
		r.csvLine(&b, row.Point.CSV, row.Policy, func(c column) string { return c.csvCell(row.Values[c.csv]) })
	}
	return b.String()
}

// csvLine writes one CSV line: the point, the policy, every column.
func (r *StudyReport) csvLine(b *strings.Builder, point, policy string, text func(column) string) {
	if r.key.csv != "" {
		b.WriteString(point + ",")
	}
	b.WriteString(policy)
	for _, c := range r.columns {
		b.WriteString("," + text(c))
	}
	b.WriteByte('\n')
}

// --- the columns the studies share ---

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

// --- the study constructors ---

// Studies returns every study at its defaults, in command-line order.
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

// LossPoint is a frame-loss rate on the fabric.
func LossPoint(loss float64) Point {
	return Point{
		Name: fmt.Sprintf("%g%%", loss*100),
		CSV:  fmt.Sprintf("%g", loss),
		Set:  func(c *cluster.Config) { sweep.SetLoss(c, loss) },
	}
}

// Degraded returns the loss-rate sweep: read latency (mean and P99) and
// goodput across frame loss from 0 to 5 %, with the client retry
// machinery absorbing the loss, on the §V testbed scaled down to 8
// servers for turnaround.
func Degraded() Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	// The timeout sits above the healthy P99 so the 0% row shows no
	// spurious retries; lossy rows still converge well within 12 tries.
	cfg.RetryTimeout = 40 * units.Millisecond
	cfg.MaxRetries = 12
	var points []Point
	for _, loss := range []float64{0, 0.001, 0.01, 0.05} {
		points = append(points, LossPoint(loss))
	}
	return Study{
		ID:       "degraded",
		Title:    "Degraded mode: read latency vs frame loss per policy",
		Points:   points,
		Policies: DegradedPolicies,
		Config:   cfg,
		Seeds:    3,
		key:      column{head: "loss", csv: "loss_rate", width: 8},
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
// study has one unnamed point; its timeline lives in Config.Faults.
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
		ID:       "chaos",
		Title:    "Chaos: crash server 0 at 5ms, revive at 35ms, degraded fabric during the outage",
		Points:   []Point{{}},
		Policies: DegradedPolicies,
		Config:   cfg,
		Seeds:    1,
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
		Name: name,
		CSV:  fmt.Sprintf("%d", int64(d)),
		Set:  func(c *cluster.Config) { c.TransferDeadline = d },
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
	return Study{
		ID:       "graceful",
		Title:    "Graceful degradation: permanent server loss, hard-fail vs per-transfer deadlines",
		Points:   []Point{deadlinePoint(0), deadlinePoint(40 * units.Millisecond), deadlinePoint(80 * units.Millisecond)},
		Policies: DegradedPolicies,
		Config:   cfg,
		Seeds:    1,
		key:      column{head: "deadline", csv: "deadline_ns", width: 10},
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
	name := fmt.Sprintf("%g", load)
	return Point{Name: name, CSV: name, Set: func(c *cluster.Config) {
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
	return Study{
		ID:       "noisy",
		Title:    "Noisy neighbor: background load vs foreground strip latency",
		Points:   []Point{loadPoint(0), loadPoint(0.5), loadPoint(1), loadPoint(2)},
		Policies: DegradedPolicies,
		Config:   cfg,
		Seeds:    1,
		key:      column{head: "load", csv: "load", width: 6},
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
	{Name: "seq-read", CSV: "seq-read"},
	{Name: "rand-read", CSV: "rand-read", Set: func(c *cluster.Config) { c.RandomAccess = true }},
	{Name: "stall", CSV: "stall", Set: func(c *cluster.Config) {
		c.Faults = faults.Merge(c.Faults, &faults.Plan{
			Stalls: []faults.Stall{{Server: -1, Rate: 0.25, Mean: 2 * units.Millisecond}},
		})
	}},
	{Name: "write", CSV: "write", Set: func(c *cluster.Config) { c.WriteWorkload = true }},
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
	us := func(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }
	return Study{
		ID:       "policymatrix",
		Title:    "Policy matrix: strip latency and reordering per policy and workload",
		Points:   MatrixWorkloads,
		Policies: irqsched.Kinds(),
		Config:   cfg,
		Seeds:    1,
		key:      column{head: "workload", csv: "workload", width: 10},
		columns: []column{
			{"MB/s", "bandwidth_mbps", 10, fixed1, mbps},
			{"P50 (µs)", "strip_p50_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP50) }},
			{"P95 (µs)", "strip_p95_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP95) }},
			{"P99 (µs)", "strip_p99_us", 12, fixed1, func(r *cluster.Result) float64 { return us(r.StripLatencyP99) }},
			{"reordered", "reordered_frames", 10, total, func(r *cluster.Result) float64 { return float64(r.ReorderedFrames) }},
			{"depth", "reorder_depth_max", 7, integer, func(r *cluster.Result) float64 { return float64(r.ReorderDepthMax) }},
		},
	}
}
