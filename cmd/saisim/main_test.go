package main

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// configure parses args as saisim's fault and retry flags and applies
// them to a small cluster.
func configure(t *testing.T, args ...string) cluster.Config {
	t.Helper()
	fs := flag.NewFlagSet("saisim", flag.ContinueOnError)
	var ff faultFlags
	ff.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.BytesPerProc = 2 * units.MiB
	if err := ff.apply(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFaultFlags(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	err := faults.SavePlan(planPath, &faults.Plan{
		Loss:    0.3,
		Corrupt: 0.05,
		Stalls:  []faults.Stall{{Server: 0, Rate: 0.5, Mean: units.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	crash := func(at units.Time) faults.TimelineEvent {
		return faults.TimelineEvent{At: at, Kind: faults.KindCrash, Server: 1}
	}
	revive := func(at units.Time) faults.TimelineEvent {
		return faults.TimelineEvent{At: at, Kind: faults.KindRevive, Server: 1}
	}

	cases := []struct {
		name  string
		args  []string
		plan  *faults.Plan
		check func(t *testing.T, res *cluster.Result)
	}{
		{
			name: "no flags",
			check: func(t *testing.T, res *cluster.Result) {
				if f := res.Faults; f.FramesDropped != 0 || f.Crashes != 0 || f.GoodputBytes != f.OfferedBytes {
					t.Errorf("healthy run reports faults: %+v", f)
				}
			},
		},
		{
			name: "loss alone",
			args: []string{"-loss", "0.1", "-retry", "20ms", "-max-retries", "12"},
			plan: &faults.Plan{Loss: 0.1},
			check: func(t *testing.T, res *cluster.Result) {
				if f := res.Faults; f.FramesDropped == 0 || f.GoodputBytes != f.OfferedBytes {
					t.Errorf("10%% loss with retries: dropped %d, goodput %v of %v",
						f.FramesDropped, f.GoodputBytes, f.OfferedBytes)
				}
			},
		},
		{
			name: "crash without revive",
			args: []string{"-crash", "1", "-crash-at", "2ms", "-retry", "5ms", "-max-retries", "1"},
			plan: &faults.Plan{Timeline: []faults.TimelineEvent{crash(2 * units.Millisecond)}},
			check: func(t *testing.T, res *cluster.Result) {
				f := res.Faults
				if f.Crashes != 1 || f.LastReviveAt != 0 {
					t.Errorf("crashes %d, last revive %v; want 1 crash and no revive", f.Crashes, f.LastReviveAt)
				}
				if want := res.Duration - 2*units.Millisecond; f.ServerDowntime[1] != want {
					t.Errorf("server 1 down for %v, want the rest of the run (%v)", f.ServerDowntime[1], want)
				}
				if f.FailedOps == 0 || f.GoodputBytes >= f.OfferedBytes {
					t.Errorf("a server that stays down failed %d ops, goodput %v of %v",
						f.FailedOps, f.GoodputBytes, f.OfferedBytes)
				}
			},
		},
		{
			name: "crash and revive",
			args: []string{"-crash", "1", "-crash-at", "2ms", "-revive-at", "10ms", "-retry", "5ms", "-max-retries", "20"},
			plan: &faults.Plan{Timeline: []faults.TimelineEvent{crash(2 * units.Millisecond), revive(10 * units.Millisecond)}},
			check: func(t *testing.T, res *cluster.Result) {
				f := res.Faults
				if f.Crashes != 1 || f.LastReviveAt != 10*units.Millisecond || f.ServerDowntime[1] != 8*units.Millisecond {
					t.Errorf("crashes %d, last revive %v, downtime %v; want 1, 10ms, 8ms",
						f.Crashes, f.LastReviveAt, f.ServerDowntime[1])
				}
				if f.FailedOps != 0 || f.GoodputBytes != f.OfferedBytes {
					t.Errorf("revived server: %d failed ops, goodput %v of %v", f.FailedOps, f.GoodputBytes, f.OfferedBytes)
				}
			},
		},
		{
			name: "plan file with loss on top",
			args: []string{"-fault-plan", planPath, "-loss", "0.1", "-retry", "20ms", "-max-retries", "12"},
			plan: &faults.Plan{
				Loss:    0.1,
				Corrupt: 0.05,
				Stalls:  []faults.Stall{{Server: 0, Rate: 0.5, Mean: units.Millisecond}},
			},
			check: func(t *testing.T, res *cluster.Result) {
				if f := res.Faults; f.FramesDropped == 0 || f.FramesCorrupted == 0 || f.StallsInjected == 0 {
					t.Errorf("plan file not applied: %+v", f)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := configure(t, tc.args...)
			if got := cfg.Faults; !reflect.DeepEqual(got, tc.plan) {
				t.Fatalf("plan = %+v, want %+v", got, tc.plan)
			}
			res, err := cluster.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, res)
		})
	}
}

func TestNegativeFaultFlagsRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-loss", "-0.5"}, "loss -0.5 outside [0,1)"},
		{[]string{"-retry", "-5ms"}, "negative retry timeout"},
		{[]string{"-max-retries", "-3"}, "negative max retries"},
		{[]string{"-crash-at", "-1ms"}, "at negative time"},
		{[]string{"-crash-at", "5ms", "-revive-at", "-1ms"}, "at negative time"},
		{[]string{"-revive-at", "-1ms"}, "at negative time"},
		{[]string{"-crash", "-1", "-crash-at", "5ms"}, "targets server -1"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cfg := configure(t, tc.args...)
			res, err := cluster.Run(cfg)
			if err == nil || res != nil {
				t.Fatalf("run accepted %v: err %v", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShortfall: a run whose transfers are stranded on a crashed server
// with retries off fails no op, yet must still be reported short; a
// healthy run, read or write, must not.
func TestShortfall(t *testing.T) {
	// saisim's flag defaults.
	base := cluster.DefaultConfig()
	base.Policy = irqsched.PolicySourceAware
	base.Servers = 16
	base.Clients = 1
	base.ProcsPerClient = 2
	base.CoresPerClient = 8
	base.ClientNICRate = 3 * units.Gigabit
	base.TransferSize = units.MiB
	base.BytesPerProc = 32 * units.MiB
	base.Seed = 1
	write := base
	write.WriteWorkload = true

	cases := []struct {
		name  string
		cfg   cluster.Config
		args  []string
		short string // "" for a run that must pass
	}{
		{name: "healthy read", cfg: base},
		{name: "healthy write", cfg: write},
		{name: "stranded by a crash", cfg: base, args: []string{"-crash", "2", "-crash-at", "5ms"},
			short: "0 ops failed, 0 partial, 62MiB of 64MiB offered never arrived"},
		{name: "abandoned after retries", cfg: base, args: []string{"-crash", "2", "-crash-at", "5ms", "-retry", "5ms", "-max-retries", "1"},
			short: "never arrived"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("saisim", flag.ContinueOnError)
			var ff faultFlags
			ff.register(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			if err := ff.apply(&cfg); err != nil {
				t.Fatal(err)
			}
			res, err := cluster.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			msg, short := shortfall(res)
			if short != (tc.short != "") || !strings.Contains(msg, tc.short) {
				t.Errorf("shortfall = %q, %v; want %v and a summary containing %q", msg, short, tc.short != "", tc.short)
			}
		})
	}
}
