package sais

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sais/cluster"
	"sais/experiments"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/scenario"
	"sais/internal/sweep"
	"sais/internal/units"
)

// The behaviour lock: SHA-256 digests of every committed scenario's
// Result JSON (on one engine and on four shards), of both policies of
// every Figure 5 cell at 48 servers, of one Chrome trace, of the CSV
// and table output of the five studies (the policy matrix, the
// loss-rate sweep, crash-and-recover, graceful degradation and noisy
// neighbor) at their default settings, of the CSV, table and chart of
// every figure at its defaults plus the HTML report over all of them,
// of one multi-dimension sweep CSV, and of two runs with periodic
// client background load (busywork alone, and busywork beside a hybrid
// background population) on one engine and on four shards. A change meant only to
// restructure or speed up the simulator must leave every digest
// unchanged; a change that is meant to alter model output
// re-records the file (go test -run TestBehaviourLock -update-lock .)
// and says why.

const lockFile = "testdata/behaviour_lock.json"

var updateLock = flag.Bool("update-lock", false, "rewrite "+lockFile+" from the current tree")

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func resultDigest(t *testing.T, res *cluster.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return sha(b)
}

// lockDigests computes every digest the lock covers, keyed by a stable
// name.
func lockDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	paths, err := filepath.Glob("scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	for _, shards := range []int{-1, 4} {
		for _, path := range paths {
			s, err := scenario.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			engine := "one"
			if shards > 0 {
				s.Config.Shards = shards
				engine = "shards4"
			}
			rep, err := scenario.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range rep.Runs {
				got["scenario/"+engine+"/"+s.Name+"/"+run.Policy] = resultDigest(t, run.Result)
			}
		}
	}

	fig := experiments.Figure5()
	for _, pt := range fig.Points {
		cfg := fig.Config
		pt.Set(&cfg)
		if cfg.Servers != 48 {
			continue
		}
		cfg.Seed = 1
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["figure5/"+pt.Values[0]+"/"+cfg.Policy.String()] = resultDigest(t, res)
	}

	s, err := scenario.Load("scenarios/healthy-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := cluster.RunSpanned(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spans.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got["chrome/healthy-baseline"] = sha(buf.Bytes())

	for _, st := range experiments.Studies() {
		rep, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		got["study/"+st.ID] = sha([]byte(rep.CSV()))
		got["study-table/"+st.ID] = sha([]byte(rep.Table()))
	}

	figureDigests(t, got)
	got["sweep/policy-servers-transfer-loss"] = sha([]byte(lockedSweepCSV(t)))
	backgroundDigests(t, got)
	return got
}

// backgroundDigests adds the Result digests of the two periodic client
// loads, on one engine and on four shards: classic BackgroundLoad
// busywork alone, and busywork beside a hybrid background population
// whose colocated tenants tick every client station on the same 1 ms
// boundaries.
func backgroundDigests(t *testing.T, got map[string]string) {
	t.Helper()
	classic := cluster.DefaultConfig()
	classic.Clients = 4
	classic.Servers = 8
	classic.CoresPerClient = 4
	classic.BytesPerProc = 4 * units.MiB
	classic.BackgroundLoad = 0.1

	both := classic
	both.TransferSize = 256 * units.KiB
	both.BytesPerProc = units.MiB
	both.BackgroundUsers = 20000
	both.TenantMix = []flowsim.TenantShare{
		{Name: "stream", Share: 0.7, PerUserRate: 3000, Colocate: 0.15},
		{Name: "burst", Share: 0.3, PerUserRate: 2500, Shape: "burst",
			Period: 10 * units.Millisecond, Duty: 0.3, HotServers: 4},
	}

	for _, c := range []struct {
		name string
		cfg  cluster.Config
	}{{"background-load", classic}, {"background-load-users", both}} {
		for _, shards := range []int{0, 4} {
			engine := "one"
			if shards > 0 {
				engine = "shards4"
			}
			for _, p := range []irqsched.PolicyKind{irqsched.PolicyIrqbalance, irqsched.PolicySourceAware} {
				cfg := c.cfg.WithPolicy(p)
				cfg.Shards = shards
				res, err := cluster.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got[c.name+"/"+engine+"/"+cfg.Policy.String()] = resultDigest(t, res)
			}
		}
	}
}

// figureDigests adds the CSV, table and chart digests of every figure
// at its defaults, and one digest of the HTML report over all of them.
func figureDigests(t *testing.T, got map[string]string) {
	t.Helper()
	var reports []*experiments.Report
	for _, e := range experiments.All() {
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		chart, err := rep.Chart()
		if err != nil {
			t.Fatal(err)
		}
		got["figure/"+e.ID+"/csv"] = sha([]byte(rep.CSV()))
		got["figure/"+e.ID+"/table"] = sha([]byte(rep.Table()))
		got["figure/"+e.ID+"/chart"] = sha([]byte(chart))
		reports = append(reports, rep)
	}
	var html bytes.Buffer
	if err := experiments.WriteHTML(&html, reports, "behaviour lock"); err != nil {
		t.Fatal(err)
	}
	got["figure-html/all"] = sha(html.Bytes())
}

// lockedSweep is a multi-dimension sweep with the policy as its first
// dimension, so its rows are policy-major.
var lockedSweep = []string{"policy=irqbalance,sais", "servers=8,16", "transfer=256KiB,1MiB", "loss=0,0.01"}

// lockedSweepCSV is the CSV saisweep -bytes 2MiB prints for lockedSweep.
func lockedSweepCSV(t *testing.T) string {
	t.Helper()
	var dims []sweep.Dim
	var names []string
	for _, spec := range lockedSweep {
		d, err := sweep.ParseDim(spec)
		if err != nil {
			t.Fatal(err)
		}
		dims = append(dims, d)
		names = append(names, d.Name)
	}
	points, err := sweep.Product(dims)
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.DefaultConfig()
	base.BytesPerProc = 2 * units.MiB
	rep, err := experiments.Sweep(base, names, points).Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep.CSV()
}

// TestBehaviourLock checks the simulator's outputs against the recorded
// digests. They are recorded on linux/amd64; another architecture may
// fuse floating-point operations differently, as perfbench's goldens
// note, so the test runs only there.
func TestBehaviourLock(t *testing.T) {
	if p := runtime.GOOS + "/" + runtime.GOARCH; p != "linux/amd64" {
		t.Skipf("digests are recorded on linux/amd64, not %s", p)
	}
	got := lockDigests(t)
	if *updateLock {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lockFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lockFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if got[k] != want[k] {
			bad = append(bad, k+": got "+got[k]+", want "+want[k])
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d of %d digests differ:\n%s", len(bad), len(keys), strings.Join(bad, "\n"))
	}
}
