// Command perfbench is the simulator's benchmark. It drives the public
// cluster.Run API on one named workload in a closed loop (one run at a
// time), checks every run's output against the output lock, and prints
// host-side metrics by name with their units. The last line of
// standard output is a JSON summary.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload paper-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 repeats set-up, runs the timed pass and prints the
// end-to-end metrics. --trace 1 runs an untraced pass, the traced pass
// (span log, progress hook, CPU profile, runtime invariants) and the
// per-layer drivers, and prints the per-layer metrics.
//
//	bash perfbench/run.sh --record-goldens perfbench/goldens.json
//
// regenerates the output lock at the default seed. Only a change that
// redefines the benchmark may do that.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

//go:embed goldens.json
var goldensJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options select one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload so the self-test runs in seconds.
	tiny    bool
	goldens goldens
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-read, scaleout-read, lossy-write or hybrid-1m")
	seed := fs.Uint64("seed", defaultSeed, "seed passed into every run's Config.Seed")
	seconds := fs.Float64("seconds", 10, "host seconds the timed pass measures")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	record := fs.String("record-goldens", "", "write the default-seed output lock of every workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGoldens(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var gold goldens
	if err := json.Unmarshal(goldensJSON, &gold); err != nil {
		fmt.Fprintln(stderr, "perfbench: reading goldens:", err)
		return 1
	}
	opts := options{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, goldens: gold}
	rep, err := run(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// run executes one invocation and prints its human-readable lines; the
// caller prints the returned report.
func run(opts options, w io.Writer) (*report, error) {
	wl, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", wl.name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "host %s\n", hostStamp())
	budget := time.Duration(opts.seconds * float64(time.Second))
	var rep *report
	if opts.trace {
		rep, err = tracedRun(wl, opts, budget, w)
	} else {
		rep, err = timedRun(wl, opts, budget, w)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(w, rep)
	return rep, nil
}

// timedRun measures set-up and the timed pass and returns the
// end-to-end metrics.
func timedRun(wl workload, opts options, budget time.Duration, w io.Writer) (*report, error) {
	p, setupS, err := setUpAndTime(wl, opts, budget)
	if err != nil {
		return nil, err
	}
	if p.first != nil {
		fmt.Fprintf(w, "FAIL %v\n", p.first)
	}
	n := p.strips
	if n == 0 {
		return nil, errors.New("no run completed a strip")
	}
	fmt.Fprintf(w, "runs=%d strips=%.0f failed_run_frac=%g\n", p.runs, n, float64(p.failed)/float64(p.runs))
	return &report{
		Correct:   p.failed == 0,
		Attempted: p.runs,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"strips_per_s":       {n / p.inRun.Seconds(), "strips/s"},
			"run_ms_p50":         {quantile(p.ms, 0.5), "ms"},
			"run_ms_p90":         {quantile(p.ms, 0.9), "ms"},
			"allocs_per_strip":   {float64(p.mallocs) / n, "allocs/strip"},
			"alloc_kb_per_strip": {float64(p.allocBytes) / 1024 / n, "KiB/strip"},
			"max_rss_mb":         {maxRSSMiB(), "MiB"},
			"setup_s":            {setupS, "s"},
		},
	}, nil
}

func printMetrics(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// recordGoldens writes the default-seed Result digest of every run
// config of every workload to path.
func recordGoldens(path string) error {
	gold, err := computeGoldens(false)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(gold, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func computeGoldens(tiny bool) (goldens, error) {
	gold := goldens{}
	for _, wl := range workloads {
		s, err := setUp(wl, defaultSeed, tiny, nil)
		if err != nil {
			return nil, err
		}
		gold[wl.name] = s.want
	}
	return gold, nil
}
