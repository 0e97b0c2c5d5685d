// Command experiments regenerates the paper's evaluation: every table
// and figure (5-12, 14, and the §V.C 1-Gigabit result) as a text table
// of baseline vs SAIs with the relative change per cell.
//
// Usage:
//
//	experiments              # run everything, in paper order
//	experiments -fig 5       # one figure ("5", "figure5", "5-1g", "12", ...)
//	experiments -list        # list experiment ids
//	experiments -seeds 5     # more repetitions per cell
//	experiments -parallel 8  # run up to 8 cells concurrently per figure
//	experiments -timeout 2m  # bound the whole regeneration
//
// One study instead of the figures (-list names them all):
//
//	experiments -degraded    # latency vs frame loss per policy (faults)
//	experiments -degraded -loss 0.01  # one loss rate instead of the grid
//	experiments -chaos       # crash-and-recover scenario per policy
//	experiments -chaos -crash-at 8ms  # or -fault-plan plan.json
//	experiments -graceful    # permanent server loss, hard-fail vs deadlines
//	experiments -noisy       # background load vs foreground strip latency
//	experiments -policymatrix # strip latency and reordering per policy × workload
//
// Figures and studies run on one runner, experiments.Study: -seeds and
// -parallel apply to both, and set explicitly must be at least 1. A
// study modifier (-loss, -crash-at, -fault-plan) without its study is
// an error.
//
// Ctrl-C (SIGINT) cancels in-flight simulations promptly and the
// figure cells or study rows completed so far are still printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sais/experiments"
	"sais/internal/faults"
	"sais/internal/prof"
	"sais/internal/units"
)

// profiler is package-level so fatal (which exits without running
// defers) can flush profiles too.
var profiler *prof.Profiler

// options are the parsed command line.
type options struct {
	fig, html, faultPlan   string
	list, plot, csv        bool
	seeds, par             int
	timeout, crashAt       time.Duration
	loss                   float64
	cpuProfile, memProfile string
	studies                map[string]*bool // study ID -> its flag
}

// newFlags defines the command line on a fresh flag set.
func newFlags(errorHandling flag.ErrorHandling) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("experiments", errorHandling)
	o := &options{studies: map[string]*bool{}}
	fs.StringVar(&o.fig, "fig", "", "run a single figure by id or number")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.IntVar(&o.seeds, "seeds", 0, "override repetitions per cell (default: per-experiment, ≥3)")
	fs.BoolVar(&o.plot, "plot", false, "render each figure as an ASCII bar chart too")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV rows instead of tables")
	fs.StringVar(&o.html, "html", "", "also write a self-contained HTML report to this file")
	fs.IntVar(&o.par, "parallel", 1, "run up to N cells of each experiment concurrently")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	for _, s := range experiments.Studies() {
		o.studies[s.ID] = fs.Bool(s.ID, false, fmt.Sprintf("run the study %q and exit", s.Title))
	}
	fs.StringVar(&o.faultPlan, "fault-plan", "", "with -chaos: load the scenario's fault plan from a JSON file")
	fs.Float64Var(&o.loss, "loss", 0, "with -degraded: run only this loss rate instead of the default grid")
	fs.DurationVar(&o.crashAt, "crash-at", 0, "with -chaos: override the crash time (revive stays 30ms later)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return fs, o
}

// modifiers maps each study modifier flag to the study it changes.
var modifiers = []struct{ flag, study string }{
	{"loss", "degraded"},
	{"crash-at", "chaos"},
	{"fault-plan", "chaos"},
}

// selection resolves the parsed flags into the studies to run: the one
// study a study flag selects, with every explicitly set modifier
// applied (isStudy true), or else the figures. A modifier without its
// study, two studies at once, or an explicit -seeds or -parallel below
// 1 is an error.
func (o *options) selection(fs *flag.FlagSet) (toRun []experiments.Study, isStudy bool, err error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["seeds"] && o.seeds < 1 {
		return nil, false, fmt.Errorf("-seeds %d: want at least 1", o.seeds)
	}
	if set["parallel"] && o.par < 1 {
		return nil, false, fmt.Errorf("-parallel %d: want at least 1", o.par)
	}
	var s experiments.Study
	for _, st := range experiments.Studies() {
		if !*o.studies[st.ID] {
			continue
		}
		if isStudy {
			return nil, false, fmt.Errorf("-%s and -%s are exclusive", s.ID, st.ID)
		}
		s, isStudy = st, true
	}
	for _, m := range modifiers {
		if set[m.flag] && s.ID != m.study {
			return nil, false, fmt.Errorf("-%s needs -%s", m.flag, m.study)
		}
	}
	if set["crash-at"] && set["fault-plan"] {
		return nil, false, errors.New("-crash-at and -fault-plan are exclusive")
	}
	switch {
	case isStudy:
		toRun = []experiments.Study{s}
	case o.fig != "":
		id := o.fig
		// Bare numbers ("5", "12") are shorthand for figure ids; named
		// experiments (writes, hybrid, ...) pass through.
		if _, err := experiments.ByID(id); err != nil && !strings.HasPrefix(id, "figure") {
			id = "figure" + id
		}
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, false, err
		}
		toRun = []experiments.Study{e}
	default:
		toRun = experiments.All()
	}
	if set["loss"] {
		toRun[0] = experiments.Degraded(o.loss)
	}
	if set["crash-at"] {
		at := units.Time(o.crashAt.Nanoseconds())
		toRun[0].Config.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
			{At: at, Kind: faults.KindCrash, Server: 0},
			{At: at + 30*units.Millisecond, Kind: faults.KindRevive, Server: 0},
		}}
		toRun[0].Title = fmt.Sprintf("Chaos: crash server 0 at %v, revive 30ms later", o.crashAt)
	}
	if set["fault-plan"] {
		plan, err := faults.LoadPlan(o.faultPlan)
		if err != nil {
			return nil, false, err
		}
		toRun[0].Config.Faults = plan
		toRun[0].Title = fmt.Sprintf("Chaos: fault plan %s", o.faultPlan)
	}
	for i := range toRun {
		if set["seeds"] {
			toRun[i].Seeds = o.seeds
		}
		toRun[i].Parallel = o.par
	}
	return toRun, isStudy, nil
}

func main() {
	fs, o := newFlags(flag.ExitOnError)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag

	var err error
	profiler, err = prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fatal(err)
	}
	defer profiler.Stop()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if o.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, o.timeout)
		defer cancelTimeout()
	}

	if o.list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		for _, s := range experiments.Studies() {
			fmt.Printf("%-12s %s\n", "-"+s.ID, s.Title)
		}
		return
	}

	toRun, isStudy, err := o.selection(fs)
	if err != nil {
		fatal(err)
	}
	var reports []*experiments.Report
	var runErr error
	for _, s := range toRun {
		start := time.Now() //lint:wallclock operator-facing elapsed-time note, not a study input
		rep, err := s.RunContext(ctx)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
		// An interrupted figure prints only if it finished a row; an
		// interrupted study prints its header and rows either way.
		if err == nil || isStudy || len(rep.Rows) > 0 {
			render(rep, o.csv, o.plot && !isStudy)
			reports = append(reports, rep)
		}
		elapsed := time.Since(start).Round(time.Millisecond) //lint:wallclock operator-facing elapsed-time note, not a study input
		if err != nil {
			fmt.Printf("(%s interrupted after %v with %d/%d rows)\n", s.ID, elapsed, len(rep.Rows), len(s.Points))
			runErr = err
			break
		}
		if !isStudy && !o.csv {
			fmt.Printf("(%s completed in %v)\n\n", s.ID, elapsed)
		}
	}
	if o.html != "" && !isStudy {
		f, err := os.Create(o.html)
		if err != nil {
			fatal(err)
		}
		//lint:wallclock report header timestamp; injected here so the experiments package stays deterministic
		generated := time.Now().Format(time.RFC1123)
		werr := experiments.WriteHTML(f, reports, generated)
		if cerr := f.Close(); werr == nil {
			werr = cerr // a dropped close error would hide a truncated report
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("HTML report written to %s\n", o.html)
	}
	if runErr != nil {
		fatal(fmt.Errorf("run cancelled: %w", runErr))
	}
}

func fatal(err error) {
	profiler.Stop() // os.Exit skips defers; flush profiles first
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// render prints one report in the selected format.
func render(rep *experiments.Report, csv, plot bool) {
	if csv {
		fmt.Print(rep.CSV())
		return
	}
	fmt.Println(rep.Table())
	if plot {
		chart, err := rep.Chart()
		if err != nil {
			fatal(err)
		}
		fmt.Println(chart)
	}
}
