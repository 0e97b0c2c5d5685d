// Package experiments runs the paper's evaluation (§V and §VI) and the
// robustness studies beyond it. Each is a Study: a grid of points, each
// point a change to a base cluster config with the steering policy
// among its keys, averaged over seeded runs. A figure is a two-policy
// study, every cell under the baseline and the treatment, rendered as
// pairs with the paper's metric and the relative change; every figure
// averages at least three seeded runs, as the paper's methodology does.
//
// The constructors are indexed in DESIGN.md; cmd/experiments runs them
// and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/textplot"
	"sais/internal/units"
)

// metric is what a figure compares: one measured column and its
// direction.
type metric struct {
	col    column
	higher bool // higher is better; otherwise lower is
}

// metricKey is the CSV header, and Row.Stats key, of a figure's metric.
const metricKey = "metric"

// The metrics of the paper's figures.
var (
	// bandwidth is in MB/s (Figs 5, 12, 14).
	bandwidth = metric{column{head: "bandwidth (MB/s)", csv: metricKey, value: mbps}, true}
	// missRate is the L2 miss ratio (Figs 6, 7).
	missRate = metric{column{head: "L2 miss rate", csv: metricKey,
		value: func(r *cluster.Result) float64 { return r.CacheMissRate }}, false}
	// utilization is CPU utilization, lower for equal work (Figs 8, 9).
	utilization = metric{column{head: "CPU utilization", csv: metricKey,
		value: func(r *cluster.Result) float64 { return r.CPUUtilization }}, false}
	// unhalted is CPU_CLK_UNHALTED cycles (Figs 10, 11).
	unhalted = metric{column{head: "CPU_CLK_UNHALTED (cycles)", csv: metricKey,
		value: func(r *cluster.Result) float64 { return float64(r.UnhaltedCycles) }}, false}
)

// figure is what a paper figure adds to its study: the metric, the
// baseline and treatment policies, and the paper's own result.
type figure struct {
	metric              metric
	baseline, treatment irqsched.PolicyKind
	note                string
}

// newFigure returns a figure's study: every cell under the baseline and
// then the treatment, averaged over three seeds as the paper does.
func newFigure(id, title string, cfg cluster.Config, cells []Point, f figure) Study {
	return Study{
		ID:      id,
		Title:   title,
		Points:  cross(cells, []irqsched.PolicyKind{f.baseline, f.treatment}),
		Config:  cfg,
		Seeds:   3,
		keys:    []column{{head: "cell", csv: "cell"}, policyKey},
		columns: []column{f.metric.col, stripP50us, stripP95us, stripP99us},
		figure:  &f,
	}
}

// cell is one bar of a figure: a label and its change to the base
// config.
func cell(label string, set func(*cluster.Config)) Point {
	return Point{Values: []string{label}, Set: set}
}

// pair is one figure cell of a report: its baseline and treatment rows.
type pair struct {
	label       string
	base, treat Row
	// change is the treatment's relative improvement: speed-up for
	// higher-is-better metrics, reduction for lower-is-better ones.
	change float64
}

// pairs matches each cell's baseline row with its treatment row. A cell
// missing either, as in an interrupted run, is left out.
func (r *Report) pairs() []pair {
	if r.figure == nil {
		return nil
	}
	var out []pair
	for i := 0; i+1 < len(r.Rows); i++ {
		base, treat := r.Rows[i], r.Rows[i+1]
		if base.Point.Values[0] != treat.Point.Values[0] {
			continue
		}
		b, t := base.Stats[metricKey].Mean(), treat.Stats[metricKey].Mean()
		p := pair{label: base.Point.Values[0], base: base, treat: treat, change: metrics.Reduction(t, b)}
		if r.figure.metric.higher {
			p.change = metrics.Speedup(t, b)
		}
		out = append(out, p)
		i++
	}
	return out
}

// BestChange returns the best change across cells and its label — the
// "peak speed-up" the paper quotes per figure. When every cell
// regresses it returns the least-bad cell (still with its label), so
// the reported peak always names a real cell.
func (r *Report) BestChange() (float64, string) {
	pairs := r.pairs()
	if len(pairs) == 0 {
		return 0, ""
	}
	best := pairs[0]
	for _, p := range pairs[1:] {
		if p.change > best.change {
			best = p
		}
	}
	return best.change, best.label
}

// figureTable renders a figure's report as a fixed-width text table.
func (r *Report) figureTable() string {
	f := r.figure
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "metric: %s   baseline: %s   treatment: %s\n", f.metric.col.head, f.baseline, f.treatment)
	if f.note != "" {
		fmt.Fprintf(&b, "paper: %s\n", f.note)
	}
	fmt.Fprintf(&b, "%-22s %16s %16s %10s %20s %20s\n",
		"cell", f.baseline, f.treatment, "change", "b strip p50/95/99us", "t strip p50/95/99us")
	for _, p := range r.pairs() {
		fmt.Fprintf(&b, "%-22s %16s %16s %10s %20s %20s\n",
			p.label, p.base.Stats[metricKey].String(), p.treat.Stats[metricKey].String(),
			metrics.Percent(p.change), stripCol(p.base), stripCol(p.treat))
	}
	best, label := r.BestChange()
	fmt.Fprintf(&b, "peak change: %s at %s\n", metrics.Percent(best), label)
	return b.String()
}

// stripCol formats a row's per-strip latency percentiles as one compact
// p50/p95/p99 column in microseconds.
func stripCol(row Row) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f", row.Stats[stripP50us.csv].Mean(),
		row.Stats[stripP95us.csv].Mean(), row.Stats[stripP99us.csv].Mean())
}

// figureCSV renders a figure's report as comma-separated rows (one per
// cell) with a header line, for spreadsheet or plotting pipelines.
func (r *Report) figureCSV() string {
	f := r.figure
	var b strings.Builder
	fmt.Fprintf(&b, "experiment,cell,metric,%s_mean,%s_ci95,%s_mean,%s_ci95,change,base_strip_p50_us,base_strip_p95_us,base_strip_p99_us,treat_strip_p50_us,treat_strip_p95_us,treat_strip_p99_us\n",
		f.baseline, f.baseline, f.treatment, f.treatment)
	for _, p := range r.pairs() {
		base, treat := p.base.Stats, p.treat.Stats
		fmt.Fprintf(&b, "%s,%q,%q,%g,%g,%g,%g,%.6f,%g,%g,%g,%g,%g,%g\n",
			r.ID, p.label, f.metric.col.head,
			base[metricKey].Mean(), base[metricKey].CI95(),
			treat[metricKey].Mean(), treat[metricKey].CI95(), p.change,
			base[stripP50us.csv].Mean(), base[stripP95us.csv].Mean(), base[stripP99us.csv].Mean(),
			treat[stripP50us.csv].Mean(), treat[stripP95us.csv].Mean(), treat[stripP99us.csv].Mean())
	}
	return b.String()
}

// Chart renders a figure's report as an ASCII bar chart — the figure's
// shape at a glance.
func (r *Report) Chart() (string, error) {
	f := r.figure
	if f == nil {
		return "", fmt.Errorf("experiments: %s is not a figure", r.ID)
	}
	ch := &textplot.Chart{
		Title: fmt.Sprintf("%s — %s (%s)", r.ID, r.Title, f.metric.col.head),
	}
	base := textplot.Series{Name: f.baseline.String()}
	treat := textplot.Series{Name: f.treatment.String()}
	for _, p := range r.pairs() {
		ch.Labels = append(ch.Labels, p.label)
		base.Values = append(base.Values, p.base.Stats[metricKey].Mean())
		treat.Values = append(treat.Values, p.treat.Stats[metricKey].Mean())
	}
	ch.Series = []textplot.Series{base, treat}
	return ch.Render()
}

// --- figure constructors ---

// transferSweep and serverSweep are the paper's §V parameter grids.
var (
	transferSweep = []units.Bytes{128 * units.KiB, 512 * units.KiB, units.MiB, 2 * units.MiB}
	serverSweep   = []int{8, 16, 32, 48}
)

// evalConfig returns the §V single-client testbed at the given client
// NIC rate, scaled for simulation turnaround.
func evalConfig(nicRate units.Rate) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ClientNICRate = nicRate
	cfg.BytesPerProc = 24 * units.MiB
	return cfg
}

// grid builds the 16-cell transfer×servers sweep of Figures 5-11.
func grid() []Point {
	var cells []Point
	for _, xfer := range transferSweep {
		for _, ns := range serverSweep {
			cells = append(cells, cell(fmt.Sprintf("%v/%d nodes", xfer, ns), func(c *cluster.Config) {
				c.TransferSize = xfer
				c.Servers = ns
			}))
		}
	}
	return cells
}

// serverCells builds the server sweep of the five extension figures,
// each cell labelled by format with its server count.
func serverCells(format string) []Point {
	var cells []Point
	for _, ns := range serverSweep {
		cells = append(cells, cell(fmt.Sprintf(format, ns), func(c *cluster.Config) { c.Servers = ns }))
	}
	return cells
}

// rate1G and rate3G name the two NIC regimes of §V.
const (
	rate1G = units.Gigabit
	rate3G = 3 * units.Gigabit
)

// The policies of the paper's own comparison.
const (
	irqbalance = irqsched.PolicyIrqbalance
	sais       = irqsched.PolicySourceAware
)

// Figure5 is the 3-Gigabit bandwidth comparison: SAIs vs Irqbalance
// over transfer sizes and server counts; the paper reports a peak
// speed-up of 23.57 % at 48 servers.
func Figure5() Study {
	return newFigure("figure5", "Bandwidth comparison with 3-Gigabit NIC", evalConfig(rate3G), grid(),
		figure{bandwidth, irqbalance, sais, "speed-up grows with server count; max +23.57% at 48 nodes; bandwidth stays under 3 Gbit"})
}

// Figure5OneGig is the §V.C 1-Gigabit bandwidth result: the NIC is the
// bottleneck and the peak speed-up falls to ≈6 %.
func Figure5OneGig() Study {
	return newFigure("figure5-1g", "Bandwidth comparison with 1-Gigabit NIC (§V.C text)", evalConfig(rate1G), grid(),
		figure{bandwidth, irqbalance, sais, "NIC bottleneck compresses the gain; peak speed-up 6.05%"})
}

// Figure6 is the 1-Gigabit L2 miss-rate comparison.
func Figure6() Study {
	return newFigure("figure6", "L2 cache miss rate comparison with 1-Gigabit NIC", evalConfig(rate1G), grid(),
		figure{missRate, irqbalance, sais, "SAIs miss rate below Irqbalance in every cell"})
}

// Figure7 is the 3-Gigabit L2 miss-rate comparison; the paper reports
// the miss rate reduced by roughly 40 %.
func Figure7() Study {
	return newFigure("figure7", "L2 cache miss rate comparison with 3-Gigabit NIC", evalConfig(rate3G), grid(),
		figure{missRate, irqbalance, sais, "miss rate reduced ≈40% by SAIs"})
}

// Figure8 is the 1-Gigabit CPU utilization comparison: utilization is
// low (the NIC starves the cores) and similar under both policies.
func Figure8() Study {
	return newFigure("figure8", "CPU utilization comparison with 1-Gigabit NIC", evalConfig(rate1G), grid(),
		figure{utilization, irqbalance, sais, "utilization low (max 15.13% in the paper); CPUs wait on the NIC"})
}

// Figure9 is the 3-Gigabit CPU utilization comparison: Irqbalance burns
// more cycles on data movement.
func Figure9() Study {
	return newFigure("figure9", "CPU utilization comparison with 3-Gigabit NIC", evalConfig(rate3G), grid(),
		figure{utilization, irqbalance, sais, "Irqbalance spends more CPU on data movement; utilization scales with NIC rate"})
}

// Figure10 is the 1-Gigabit CPU_CLK_UNHALTED comparison; the paper
// reports SAIs improving it by up to 27.14 %.
func Figure10() Study {
	return newFigure("figure10", "CPU I/O wait (CPU_CLK_UNHALTED) with 1-Gigabit NIC", evalConfig(rate1G), grid(),
		figure{unhalted, irqbalance, sais, "SAIs reduces unhalted cycles by up to 27.14%"})
}

// Figure11 is the 3-Gigabit CPU_CLK_UNHALTED comparison; the paper
// reports up to 48.57 %.
func Figure11() Study {
	return newFigure("figure11", "CPU I/O wait (CPU_CLK_UNHALTED) with 3-Gigabit NIC", evalConfig(rate3G), grid(),
		figure{unhalted, irqbalance, sais, "SAIs reduces unhalted cycles by up to 48.57%"})
}

// Figure12 is the multi-client scalability test: 8 servers, 4..56
// clients reading a shared file; the paper's speed-up peaks at 20.46 %
// with 8 clients and decays to 1.39 % at 56.
func Figure12() Study {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 8
	cfg.SharedFiles = true
	cfg.TransferSize = units.MiB
	cfg.BytesPerProc = 8 * units.MiB
	var cells []Point
	for _, nc := range []int{4, 8, 16, 24, 32, 48, 56} {
		cells = append(cells, cell(fmt.Sprintf("%d clients", nc), func(c *cluster.Config) { c.Clients = nc }))
	}
	return newFigure("figure12", "Multiple clients aggregate I/O bandwidth (8 servers)", cfg, cells,
		figure{bandwidth, irqbalance, sais, "speed-up peaks near clients=servers (20.46% at 8) then decays (1.39% at 56)"})
}

// Figure14 is the §VI no-NIC-bottleneck study: the client "NIC" runs at
// the DDR2-667 memory rate (5333 MB/s) and the storage path is
// RAM-resident, sweeping the number of applications. The paper reports
// a peak speed-up of 53.23 % and convergence once applications saturate
// the cores.
func Figure14() Study {
	memRate := units.Rate(5333 * units.MBps)
	cfg := cluster.DefaultConfig()
	cfg.ClientNICRate = memRate
	cfg.ServerNICRate = memRate
	cfg.FabricLatency = 2 * units.Microsecond
	cfg.Servers = 8
	cfg.TransferSize = units.MiB
	cfg.BytesPerProc = 16 * units.MiB
	// RAM-disk storage: no rotation, no seeks that matter, media at
	// memory speed, everything cached.
	cfg.Disk.MediaRate = memRate
	cfg.Disk.RotationPeriod = 0
	cfg.Disk.TrackToTrack = 0
	cfg.Disk.FullSeek = 0
	// With more applications than cores, the kernel timeslices them;
	// 2 ms approximates CFS granularity under load.
	cfg.TimesliceQuantum = 2 * units.Millisecond
	var cells []Point
	for _, apps := range []int{1, 2, 4, 6, 8, 12, 16} {
		cells = append(cells, cell(fmt.Sprintf("%d apps", apps), func(c *cluster.Config) { c.ProcsPerClient = apps }))
	}
	return newFigure("figure14", "Memory parallel I/O (RAM disk, §VI): no NIC bottleneck", cfg, cells,
		figure{bandwidth, irqbalance, sais, "peak speed-up 53.23% (bandwidth 3576 MB/s); variants converge once apps ≥ cores"})
}

// WritesControl is the control experiment for the paper's §I scoping
// claim: parallel writes have no interrupt-locality issue, so the
// policies should tie on a write workload.
func WritesControl() Study {
	cfg := evalConfig(rate3G)
	cfg.WriteWorkload = true
	return newFigure("writes", "Parallel write control (§I: no locality issue on writes)", cfg, serverCells("write/%d nodes"),
		figure{bandwidth, irqbalance, sais, "the paper studies reads only; writes should show ≈0 difference"})
}

// FlowHashComparison pits SAIs against an RSS/receive-flow-steering
// style static flow-affinity policy — the closest modern alternative
// (not in the paper; the related-work section's static Intel 82575/82599
// assignment is its hardware ancestor). Flow affinity keeps one
// *server's* strips on one core, but a request's strips span servers,
// so the merge still migrates.
func FlowHashComparison() Study {
	return newFigure("flowhash", "SAIs vs static flow-affinity (RSS-style) baseline", evalConfig(rate3G), serverCells("%d nodes"),
		figure{bandwidth, irqsched.PolicyFlowHash, sais, "extension: flow affinity is not request affinity; SAIs should still win"})
}

// HybridComparison evaluates the paper's §VIII future-work idea: the
// source-aware hint with a load-threshold fallback, against plain
// irqbalance. It should recover most of SAIs' gain.
func HybridComparison() Study {
	return newFigure("hybrid", "Hybrid source-aware + load fallback (paper §VIII future work)", evalConfig(rate3G), serverCells("%d nodes"),
		figure{bandwidth, irqbalance, irqsched.PolicyHybrid, "extension: the integrated policy should retain most of the SAIs gain"})
}

// SocketHintComparison is the hint-precision ablation: a socket-id
// hint (2-3 bits on the wire instead of the 5-bit aff_core_id) keeps
// strips on the consumer's socket. It should recover a large share of
// the exact-core gain — the intra-socket migration that remains is the
// cheap kind.
func SocketHintComparison() Study {
	return newFigure("sais-socket", "Socket-granular hints vs irqbalance (hint-precision ablation)", evalConfig(rate3G), serverCells("%d nodes"),
		figure{bandwidth, irqbalance, irqsched.PolicySocketAware, "extension: a coarser hint still wins, since only cheap intra-socket migrations remain"})
}

// HardwareRSSComparison pits SAIs against MSI-X hardware RSS: one
// statically-pinned vector per core, the Intel 82575/82599 mechanism
// the paper's related work calls "too inflexible to meet the change of
// the data request source". The static table cannot follow requests,
// so SAIs should win about as much as it does over software flowhash.
func HardwareRSSComparison() Study {
	return newFigure("rss-hw", "SAIs vs hardware RSS (static MSI-X vector table)", evalConfig(rate3G), serverCells("%d nodes"),
		figure{bandwidth, irqsched.PolicyHardwareRSS, sais, "extension: static vector assignment cannot follow the request source (related work's Intel 82575/82599)"})
}

// All returns every figure in paper order, followed by the extension
// figures.
func All() []Study {
	return []Study{
		Figure5(), Figure5OneGig(), Figure6(), Figure7(), Figure8(),
		Figure9(), Figure10(), Figure11(), Figure12(), Figure14(),
		WritesControl(), FlowHashComparison(), HybridComparison(),
		SocketHintComparison(), HardwareRSSComparison(),
	}
}

// ByID resolves a figure by its id ("figure5", "figure12", ...).
func ByID(id string) (Study, error) {
	var ids []string
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Study{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
