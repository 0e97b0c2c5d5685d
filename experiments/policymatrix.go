package experiments

// Policy-matrix experiment: every registered steering policy crossed
// with a small workload family. This is the registry's showcase — the
// policy list is taken from the irqsched registry, not hard-coded, so a
// newly registered baseline appears in the matrix without touching this
// file. The columns surface what the literature baselines differ on:
// strip-latency percentiles (the per-strip softirq service distribution,
// where Flow Director's splits and irqbalance's migrations show up) and
// the reorder metric (the Wu et al. pathology counter, which must be
// zero for every policy that keeps a flow on one core).

import (
	"context"
	"fmt"
	"strings"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/runner"
	"sais/internal/units"
)

// MatrixWorkload is one named workload shape of the matrix: a mutation
// applied to the base cluster config.
type MatrixWorkload struct {
	Name string
	Mut  func(*cluster.Config)
}

// MatrixWorkloads is the default workload family: the healthy
// sequential read, the readahead-defeating random read, a stalling
// server (the straggler-aware client's target case), and the parallel
// write (where returned acks carry no data and the policies should tie).
var MatrixWorkloads = []MatrixWorkload{
	{Name: "seq-read", Mut: func(c *cluster.Config) {}},
	{Name: "rand-read", Mut: func(c *cluster.Config) { c.RandomAccess = true }},
	{Name: "stall", Mut: func(c *cluster.Config) {
		c.Faults = faults.Merge(c.Faults, &faults.Plan{
			Stalls: []faults.Stall{{Server: -1, Rate: 0.25, Mean: 2 * units.Millisecond}},
		})
	}},
	{Name: "write", Mut: func(c *cluster.Config) { c.WriteWorkload = true }},
}

// PolicyMatrixSweep is a policy × workload study.
type PolicyMatrixSweep struct {
	Title     string
	Policies  []irqsched.PolicyKind
	Workloads []MatrixWorkload
	// Config is the base cluster; policy, workload mutation, and seed
	// are applied per cell.
	Config   cluster.Config
	Seed     uint64
	Parallel int
	Progress func(done, total int)
}

// MatrixCell is one (workload, policy) measurement.
type MatrixCell struct {
	Workload string
	Policy   string
	// Bandwidth is goodput in MB/s.
	Bandwidth float64
	// Strip-latency percentiles in microseconds: the issue-to-arrival
	// distribution of individual strips.
	StripP50 float64
	StripP95 float64
	StripP99 float64
	// Reordered and ReorderDepth are the Wu et al. pathology counters:
	// strip frames that completed softirq processing out of send order,
	// and the worst observed sequence regression.
	Reordered    uint64
	ReorderDepth uint64
}

// MatrixReport is a completed sweep.
type MatrixReport struct {
	Title string
	Cells []MatrixCell
}

// PolicyMatrix returns the default matrix: every registered policy
// against MatrixWorkloads on the §V testbed scaled down for turnaround.
func PolicyMatrix() PolicyMatrixSweep {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	return PolicyMatrixSweep{
		Title:     "Policy matrix: strip latency and reordering per policy and workload",
		Policies:  irqsched.Kinds(),
		Workloads: MatrixWorkloads,
		Config:    cfg,
		Seed:      1,
	}
}

// Run executes the sweep.
func (m PolicyMatrixSweep) Run() (*MatrixReport, error) {
	return m.RunContext(context.Background())
}

// RunContext executes the sweep under ctx. Cells run on the shared
// runner engine, results landing at fixed indices, so the report is
// identical regardless of worker count.
func (m PolicyMatrixSweep) RunContext(ctx context.Context) (*MatrixReport, error) {
	if len(m.Policies) == 0 || len(m.Workloads) == 0 {
		return nil, fmt.Errorf("experiments: policy matrix needs policies and workloads")
	}
	n := len(m.Workloads) * len(m.Policies)
	//lint:goroutine runner.Map joins all workers and returns rows in point order; per-cell output is seed-deterministic
	cells, err := runner.Map(ctx, n,
		runner.Options{Workers: m.Parallel, OnProgress: m.Progress},
		func(ctx context.Context, i int) (MatrixCell, error) {
			wl := m.Workloads[i/len(m.Policies)]
			pol := m.Policies[i%len(m.Policies)]
			cfg := m.Config
			wl.Mut(&cfg)
			cfg.Policy = pol
			cfg.Seed = m.Seed
			if cfg.Seed == 0 {
				cfg.Seed = 1
			}
			res, err := cluster.RunContext(ctx, cfg)
			if err != nil {
				return MatrixCell{}, fmt.Errorf("policymatrix %s/%s: %w", wl.Name, pol, err)
			}
			return MatrixCell{
				Workload:     wl.Name,
				Policy:       res.Policy,
				Bandwidth:    float64(res.Bandwidth) / float64(units.MBps),
				StripP50:     float64(res.StripLatencyP50) / float64(units.Microsecond),
				StripP95:     float64(res.StripLatencyP95) / float64(units.Microsecond),
				StripP99:     float64(res.StripLatencyP99) / float64(units.Microsecond),
				Reordered:    res.ReorderedFrames,
				ReorderDepth: res.ReorderDepthMax,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &MatrixReport{Title: m.Title, Cells: cells}, nil
}

// Table renders the sweep as a fixed-width text table, one row per
// (workload, policy) cell.
func (r *MatrixReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-10s %-12s %10s %12s %12s %12s %10s %7s\n",
		"workload", "policy", "MB/s", "P50 (µs)", "P95 (µs)", "P99 (µs)", "reordered", "depth")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-10s %-12s %10.1f %12.1f %12.1f %12.1f %10d %7d\n",
			c.Workload, c.Policy, c.Bandwidth,
			c.StripP50, c.StripP95, c.StripP99, c.Reordered, c.ReorderDepth)
	}
	return b.String()
}

// CSV renders the sweep as comma-separated rows with a header line.
func (r *MatrixReport) CSV() string {
	var b strings.Builder
	b.WriteString("workload,policy,bandwidth_mbps,strip_p50_us,strip_p95_us,strip_p99_us,reordered_frames,reorder_depth_max\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s,%s,%.6f,%.6f,%.6f,%.6f,%d,%d\n",
			c.Workload, c.Policy, c.Bandwidth,
			c.StripP50, c.StripP95, c.StripP99, c.Reordered, c.ReorderDepth)
	}
	return b.String()
}
