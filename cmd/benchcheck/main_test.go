package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canned is `go test -bench -benchmem -count 3` output for two
// benchmarks, with the noise lines go test prints around them.
const canned = `goos: linux
goarch: amd64
pkg: sais/internal/sim
cpu: Some CPU @ 2.00GHz
BenchmarkHot-8            	1000000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkHot-8            	1000000	       120.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkHot-8            	1000000	       110.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkScale/shards=4/workers=4-8   	      10	 2000 ns/op	 512 B/op	 7 allocs/op
BenchmarkScale/shards=4/workers=4-8   	      10	 4000 ns/op	 1024 B/op	 9 allocs/op
BenchmarkBroken-8   	      10	 notanumber ns/op
BenchmarkNoUnit-8   	      10
PASS
ok  	sais/internal/sim	3.2s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		// Odd count: the middle sample.
		"BenchmarkHot": {NsPerOp: 110, Runs: 3},
		// Even count: the mean of the middle two; the sub-benchmark's
		// own dashes survive, only the GOMAXPROCS suffix goes.
		"BenchmarkScale/shards=4/workers=4": {NsPerOp: 3000, BytesPerOp: 768, AllocsPerOp: 8, Runs: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestParseNameSuffix(t *testing.T) {
	for _, tc := range []struct{ line, name string }{
		{"BenchmarkA-16 1 5 ns/op", "BenchmarkA"},
		{"BenchmarkA 1 5 ns/op", "BenchmarkA"},
		{"BenchmarkA/size=1-KiB 1 5 ns/op", "BenchmarkA/size=1-KiB"},
		{"BenchmarkA/n=-1-2 1 5 ns/op", "BenchmarkA/n=-1"},
	} {
		got, err := parse(strings.NewReader(tc.line))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := got[tc.name]; !ok || len(got) != 1 {
			t.Errorf("%q parsed as %v, want %q", tc.line, got, tc.name)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestCompareBands(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Result{
		"Zero":  {NsPerOp: 100},
		"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
		"Wide":  {NsPerOp: 100, Tolerance: 1},
	}}
	// rows is a run that matches base except where the case overrides
	// a row.
	rows := func(over map[string]Result) map[string]Result {
		got := map[string]Result{
			"Zero":  {NsPerOp: 100},
			"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
			"Wide":  {NsPerOp: 100},
		}
		for name, r := range over {
			got[name] = r
		}
		return got
	}
	for _, tc := range []struct {
		name string
		got  map[string]Result
		want int
		// mention, when set, must appear in the printed table.
		mention string
	}{
		{"within the default band", rows(map[string]Result{"Zero": {NsPerOp: 119}, "Alloc": {NsPerOp: 80, BytesPerOp: 1090, AllocsPerOp: 109}}), 0, ""},
		{"slower than the default band", rows(map[string]Result{"Zero": {NsPerOp: 121}}), 1, "slower"},
		{"a zero-alloc baseline allocates", rows(map[string]Result{"Zero": {NsPerOp: 100, AllocsPerOp: 1}}), 1, "allocs/op 0 -> 1"},
		{"allocs beyond the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 121}}), 1, "over the 10% band"},
		{"allocs grew past the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 111}}), 1, "over the 10% band"},
		{"allocs dropped past the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 89}}), 1, "re-record"},
		{"allocs dropped within the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 91}}), 0, ""},
		{"a zero-byte baseline allocates", rows(map[string]Result{"Zero": {NsPerOp: 100, BytesPerOp: 8}}), 1, "B/op 0 -> 8"},
		{"bytes grew past the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 1101, AllocsPerOp: 100}}), 1, "B/op 1000 -> 1101, over the 10% band"},
		// One large buffer that came back: allocs/op moves by 1%, B/op doubles.
		{"a large buffer with few allocations", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 2000, AllocsPerOp: 101}}), 1, "B/op 1000 -> 2000"},
		{"bytes dropped past the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 899, AllocsPerOp: 100}}), 1, "B/op 1000 -> 899, under the 10% band: re-record"},
		{"bytes dropped within the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 901, AllocsPerOp: 100}}), 0, ""},
		{"allocs and bytes both past the band", rows(map[string]Result{"Alloc": {NsPerOp: 100, BytesPerOp: 500, AllocsPerOp: 50}}), 2, "B/op"},
		{"slower and allocating more", rows(map[string]Result{"Alloc": {NsPerOp: 150, BytesPerOp: 1000, AllocsPerOp: 150}}), 2, ""},
		{"a per-entry band", rows(map[string]Result{"Wide": {NsPerOp: 199}}), 0, ""},
		{"beyond a per-entry band", rows(map[string]Result{"Wide": {NsPerOp: 201}}), 1, "tolerance 100%"},
		{"a new row", rows(map[string]Result{"New": {NsPerOp: 1e9}}), 0, "(new)"},
		{"missing rows", map[string]Result{"Zero": {NsPerOp: 100}}, 2, "missing from this run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if got := compare(&out, base, tc.got); got != tc.want {
				t.Errorf("findings = %d, want %d:\n%s", got, tc.want, out.String())
			}
			if !strings.Contains(out.String(), tc.mention) {
				t.Errorf("output lacks %q:\n%s", tc.mention, out.String())
			}
		})
	}
}

// TestRunStrict pins the exit codes: -strict fails when there is
// nothing to judge (no baseline, or baseline rows missing from the run)
// as well as on a regression; without -strict the verdict only warns.
func TestRunStrict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	buf, err := json.Marshal(Baseline{Benchmarks: map[string]Result{
		"BenchmarkHot":                      {NsPerOp: 110},
		"BenchmarkScale/shards=4/workers=4": {NsPerOp: 3000, BytesPerOp: 768, AllocsPerOp: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	oneRow := "BenchmarkHot-8 1 110 ns/op\n"
	regression := oneRow + "BenchmarkScale/shards=4/workers=4-8 1 3000 ns/op 768 B/op 10 allocs/op\n"
	byteRegression := oneRow + "BenchmarkScale/shards=4/workers=4-8 1 3000 ns/op 1024 B/op 8 allocs/op\n"
	for _, tc := range []struct {
		name  string
		args  []string
		input string
		want  int
	}{
		{"clean", []string{"-strict", "-baseline", path}, canned, 0},
		{"no baseline", []string{"-strict", "-baseline", missing}, canned, 1},
		{"no baseline, warn only", []string{"-baseline", missing}, canned, 0},
		{"a baseline row missing", []string{"-strict", "-baseline", path}, oneRow, 1},
		{"a baseline row missing, warn only", []string{"-baseline", path}, oneRow, 0},
		{"a regression", []string{"-strict", "-baseline", path}, regression, 1},
		{"a B/op regression", []string{"-strict", "-baseline", path}, byteRegression, 1},
		{"a B/op regression, warn only", []string{"-baseline", path}, byteRegression, 0},
		{"no benchmark lines", []string{"-strict", "-baseline", path}, "PASS\n", 2},
		{"neither mode", []string{"-strict"}, canned, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := run(tc.args, strings.NewReader(tc.input), &stdout, &stderr); got != tc.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestRecordKeepsTolerance: re-recording a baseline keeps its hand-set
// tolerance bands, and the fresh baseline judges the same run clean.
func TestRecordKeepsTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	buf, err := json.Marshal(Baseline{Benchmarks: map[string]Result{"BenchmarkHot": {NsPerOp: 1, Tolerance: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-record", path}, strings.NewReader(canned), &stdout, &stderr); code != 0 {
		t.Fatalf("record exit %d: %s", code, stderr.String())
	}
	base, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Benchmarks["BenchmarkHot"]; got.NsPerOp != 110 || got.Tolerance != 0.5 {
		t.Errorf("recorded %+v, want 110 ns/op with the 0.5 band kept", got)
	}
	if code := run([]string{"-strict", "-baseline", path}, strings.NewReader(canned), &stdout, &stderr); code != 0 {
		t.Errorf("a run judged against its own recording exits %d:\n%s", code, stdout.String())
	}
}
