// Command benchcheck records and compares Go benchmark results so the
// repository carries a perf trajectory (benchstat is not vendored; this
// covers the record/compare workflow with no dependencies).
//
// It reads `go test -bench` output on stdin. With -record it writes a
// JSON baseline (per-benchmark median ns/op plus allocation counters);
// with -baseline it compares the run against a committed baseline and
// prints a table of deltas. Comparison is warn-only by default; with
// -strict a finding fails the build: ns/op beyond a benchmark's
// tolerance band, allocs/op or B/op outside the fixed 10% allocation
// band in either direction, a baseline row the run did not produce, or
// a baseline that cannot be read. Each baseline entry may carry its own
// "tolerance" — the relative ns/op slack before a run counts as a
// regression — so noisy macro-benchmarks can run with a wider band
// than steady hot-path microbenchmarks; entries without one use the
// 0.20 default. Allocation counts and bytes do not depend on the host,
// so their band is fixed and tight, and a drop past it fails too: the
// baseline is stale and must be re-recorded, or a later regression back
// to the old figure would pass. Both are gated because they catch
// different regressions: a few large buffers barely move allocs/op but
// double B/op. Re-recording preserves the tolerances already
// in the baseline file.
//
//	go test -bench EngineHot -benchmem -count 5 ./internal/sim | benchcheck -record BENCH_sim.json
//	go test -bench EngineHot -benchmem -count 5 ./internal/sim | benchcheck -baseline BENCH_sim.json -strict
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is the recorded shape of one benchmark.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`     // median across -count runs
	BytesPerOp  float64 `json:"bytes_per_op"`  // median B/op (with -benchmem)
	AllocsPerOp float64 `json:"allocs_per_op"` // median allocs/op
	Runs        int     `json:"runs"`          // samples aggregated
	// Tolerance is this benchmark's relative ns/op regression band;
	// 0 means the defaultTolerance. Hand-edit it in the baseline for
	// benchmarks whose run-to-run noise exceeds the default.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// Baseline is the committed JSON file.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// defaultTolerance is the relative ns/op regression that triggers a
// warning when the baseline entry carries no tolerance of its own.
const defaultTolerance = 0.20

// allocBand is the relative allocs/op or B/op change, up or down, that
// triggers a warning. A zero baseline is exact.
const allocBand = 0.10

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it parses args, reads benchmark output from in,
// and returns the exit code.
func run(args []string, in io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "write the parsed results as a JSON baseline to this file")
	baseline := fs.String("baseline", "", "compare the parsed results against this JSON baseline")
	strict := fs.Bool("strict", false, "exit non-zero when a comparison exceeds its tolerance band, a baseline row is missing from the run, or the baseline cannot be read")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*record == "") == (*baseline == "") {
		fmt.Fprintln(stderr, "benchcheck: exactly one of -record or -baseline is required")
		return 2
	}

	results, err := parse(in)
	if err != nil {
		fmt.Fprintln(stderr, "benchcheck:", err)
		return 2
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchcheck: no benchmark lines on stdin")
		return 2
	}

	if *record != "" {
		// Re-recording keeps any hand-set tolerance bands.
		if old, err := load(*record); err == nil {
			for name, r := range results {
				if prev, ok := old.Benchmarks[name]; ok && prev.Tolerance != 0 {
					r.Tolerance = prev.Tolerance
					results[name] = r
				}
			}
		}
		b := Baseline{
			Note:       "Recorded by `make bench-record`; gated by `make bench-check` (strict, per-benchmark tolerance bands).",
			Benchmarks: results,
		}
		buf, err := json.MarshalIndent(b, "", "  ")
		if err == nil {
			err = os.WriteFile(*record, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchcheck:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchcheck: recorded %d benchmarks to %s\n", len(results), *record)
		return 0
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchcheck: no baseline (%v); run `make bench-record` to create one\n", err)
		if *strict {
			return 1
		}
		return 0
	}
	warned := compare(stdout, base, results)
	if warned > 0 && *strict {
		fmt.Fprintf(stderr, "benchcheck: %d finding(s) beyond tolerance or missing; failing (-strict)\n", warned)
		return 1
	}
	return 0
}

// load reads a baseline file.
func load(path string) (Baseline, error) {
	var base Baseline
	buf, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	err = json.Unmarshal(buf, &base)
	return base, err
}

// compare prints per-benchmark deltas against the baseline and returns
// the number of findings: a row beyond its tolerance band, allocs/op
// or B/op outside the allocation band in either direction, or a
// baseline row the run did not produce.
func compare(w io.Writer, base Baseline, got map[string]Result) int {
	names := make([]string, 0, len(got)+len(base.Benchmarks))
	for name := range got {
		names = append(names, name)
	}
	for name := range base.Benchmarks {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	warned := 0
	fmt.Fprintf(w, "%-52s %12s %12s %8s\n", "benchmark", "base ns/op", "now ns/op", "delta")
	for _, name := range names {
		cur, ran := got[name]
		old, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-52s %12s %12.1f %8s\n", name, "(new)", cur.NsPerOp, "")
			continue
		}
		if !ran {
			fmt.Fprintf(w, "%-52s %12.1f %12s %8s  WARN: missing from this run\n", name, old.NsPerOp, "(missing)", "")
			warned++
			continue
		}
		tol := old.Tolerance
		if tol == 0 {
			tol = defaultTolerance
		}
		delta := (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
		mark := ""
		if delta > tol {
			mark = fmt.Sprintf("  WARN: slower than baseline (tolerance %.0f%%)", tol*100)
			warned++
		}
		// Allocations: zero baselines are exact invariants (the engine
		// hot path must stay at 0 allocs/op and 0 B/op); non-zero
		// baselines must stay within allocBand both ways.
		warned += allocFinding(&mark, "allocs/op", old.AllocsPerOp, cur.AllocsPerOp)
		warned += allocFinding(&mark, "B/op", old.BytesPerOp, cur.BytesPerOp)
		fmt.Fprintf(w, "%-52s %12.1f %12.1f %+7.1f%%%s\n", name, old.NsPerOp, cur.NsPerOp, delta*100, mark)
	}
	if warned > 0 {
		fmt.Fprintf(w, "benchcheck: %d warning(s)\n", warned)
	}
	return warned
}

// allocFinding appends a warning to mark and returns 1 when cur lies
// outside the allocation band around base; it returns 0 otherwise.
func allocFinding(mark *string, unit string, base, cur float64) int {
	switch {
	case cur > base*(1+allocBand):
		*mark += fmt.Sprintf("  WARN: %s %.0f -> %.0f, over the %.0f%% band", unit, base, cur, allocBand*100)
	case cur < base*(1-allocBand):
		*mark += fmt.Sprintf("  WARN: %s %.0f -> %.0f, under the %.0f%% band: re-record the baseline (make bench-record)", unit, base, cur, allocBand*100)
	default:
		return 0
	}
	return 1
}

// parse aggregates `go test -bench` output lines by benchmark name
// (GOMAXPROCS suffix stripped), taking the median of each metric.
func parse(r io.Reader) (map[string]Result, error) {
	type samples struct{ ns, bytes, allocs []float64 }
	agg := map[string]*samples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		s := agg[name]
		if s == nil {
			s = &samples{}
			agg[name] = s
		}
		s.ns = append(s.ns, ns)
		// Optional -benchmem columns: "N B/op  M allocs/op".
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(agg))
	for name, s := range agg {
		out[name] = Result{
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
			Runs:        len(s.ns),
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
