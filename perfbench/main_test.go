package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the self-test checks against.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyGoldens is the output lock of the shrunken workloads.
func tinyGoldens(t *testing.T) goldens {
	t.Helper()
	g, err := computeGoldens(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEveryMetricPrinted runs every workload at tiny sizes in both
// modes and checks that the report names exactly the manifest's
// metrics, each with the manifest's unit, and that every run passed.
func TestEveryMetricPrinted(t *testing.T) {
	m := readManifest(t)
	gold := tinyGoldens(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			rep, err := run(options{workload: w.Name, seed: defaultSeed, seconds: 0.01, trace: traced, tiny: true, goldens: gold}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, manifest lists %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := rep.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, traced, mm.Name)
				case got.Unit == "" || got.Unit != mm.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, manifest %q", w.Name, traced, mm.Name, got.Unit, mm.Unit)
				}
			}
		}
	}
}

// TestCorruptGoldenFailsRuns checks that a run whose Result no longer
// matches its golden digest is reported as failed, and only that run.
func TestCorruptGoldenFailsRuns(t *testing.T) {
	gold := tinyGoldens(t)
	gold["paper-read"]["sais"] = strings.Repeat("0", 64)
	rep, err := run(options{workload: "paper-read", seed: defaultSeed, seconds: 0.01, tiny: true, goldens: gold}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted/2 {
		t.Errorf("corrupted sais golden: correct=%t failed=%d of %d, want half the runs failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestHeldOutSeedHasNoGoldens checks that off the default seed the
// reference is the run's own warm-up digest, so runs pass.
func TestHeldOutSeedHasNoGoldens(t *testing.T) {
	rep, err := run(options{workload: "lossy-write", seed: 7, seconds: 0.01, tiny: true, goldens: goldens{}}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("held-out seed: failed=%d of %d", rep.Failed, rep.Attempted)
	}
}
