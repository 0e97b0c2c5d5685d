package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"sais/experiments"
	"sais/internal/faults"
	"sais/internal/units"
)

// resolve parses args and resolves the study they select, if any.
func resolve(t *testing.T, args ...string) (experiments.Study, bool, error) {
	t.Helper()
	fs, o := newFlags(flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	toRun, isStudy, err := o.selection(fs)
	if err != nil || !isStudy {
		return experiments.Study{}, false, err
	}
	return toRun[0], true, nil
}

func TestStudyFlags(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	plan := &faults.Plan{Loss: 0.2}
	if err := faults.SavePlan(planPath, plan); err != nil {
		t.Fatal(err)
	}
	type flagCase struct {
		name  string
		args  []string
		id    string // "" when no study is selected
		check func(t *testing.T, s experiments.Study)
	}
	cases := []flagCase{
		{name: "figures", args: []string{"-fig", "5", "-seeds", "2"}},
		{
			name: "seeds and parallel reach every study",
			args: []string{"-policymatrix", "-seeds", "4", "-parallel", "3"},
			id:   "policymatrix",
			check: func(t *testing.T, s experiments.Study) {
				if s.Seeds != 4 || s.Parallel != 3 {
					t.Errorf("seeds %d, parallel %d, want 4 and 3", s.Seeds, s.Parallel)
				}
			},
		},
		{
			name: "loss 0 is one point",
			args: []string{"-degraded", "-loss", "0"},
			id:   "degraded",
			check: func(t *testing.T, s experiments.Study) {
				assertOneLoss(t, s, "0")
			},
		},
		{
			name: "negative loss passes through",
			args: []string{"-degraded", "-loss", "-0.5"},
			id:   "degraded",
			check: func(t *testing.T, s experiments.Study) {
				assertOneLoss(t, s, "-0.5")
				if _, err := s.Run(); err == nil {
					t.Error("a negative loss rate ran")
				}
			},
		},
		{
			name: "crash-at 0 is applied",
			args: []string{"-chaos", "-crash-at", "0"},
			id:   "chaos",
			check: func(t *testing.T, s experiments.Study) {
				tl := s.Config.Faults.Timeline
				if len(tl) != 2 || tl[0].At != 0 || tl[1].At != 30*units.Millisecond {
					t.Errorf("timeline = %+v, want a crash at 0 and a revive at 30ms", tl)
				}
			},
		},
		{
			name: "fault plan",
			args: []string{"-chaos", "-fault-plan", planPath},
			id:   "chaos",
			check: func(t *testing.T, s experiments.Study) {
				if s.Config.Faults == nil || s.Config.Faults.Loss != plan.Loss {
					t.Errorf("plan = %+v, want %+v", s.Config.Faults, plan)
				}
				if !strings.Contains(s.Title, planPath) {
					t.Errorf("title %q does not name the plan", s.Title)
				}
			},
		},
	}
	for _, st := range experiments.Studies() {
		cases = append(cases, flagCase{name: st.ID, args: []string{"-" + st.ID}, id: st.ID})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ok, err := resolve(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (tc.id != "") || s.ID != tc.id {
				t.Fatalf("resolved %q (ok %v), want %q", s.ID, ok, tc.id)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
		})
	}
}

// assertOneLoss fails unless s runs the one loss rate under every
// degraded-mode policy.
func assertOneLoss(t *testing.T, s experiments.Study, loss string) {
	t.Helper()
	if len(s.Points) != len(experiments.DegradedPolicies) {
		t.Fatalf("points = %d, want one per policy", len(s.Points))
	}
	for _, pt := range s.Points {
		if pt.Values[0] != loss {
			t.Errorf("point %v, want the single %s loss rate", pt.Values, loss)
		}
	}
}

// TestFigureSelection: -fig and the default pick figures, with -seeds
// and -parallel applied to every one.
func TestFigureSelection(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ids  int
	}{
		{[]string{"-fig", "5", "-seeds", "2", "-parallel", "3"}, 1},
		{[]string{"-fig", "writes", "-seeds", "2", "-parallel", "3"}, 1},
		{[]string{"-seeds", "2", "-parallel", "3"}, len(experiments.All())},
	} {
		fs, o := newFlags(flag.ContinueOnError)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		toRun, isStudy, err := o.selection(fs)
		if err != nil || isStudy || len(toRun) != tc.ids {
			t.Fatalf("%v: %d studies (study %v), %v; want %d figures", tc.args, len(toRun), isStudy, err, tc.ids)
		}
		for _, s := range toRun {
			if s.Seeds != 2 || s.Parallel != 3 {
				t.Errorf("%v: %s seeds %d, parallel %d, want 2 and 3", tc.args, s.ID, s.Seeds, s.Parallel)
			}
		}
	}
}

func TestStudyFlagErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-loss", "0.1"}, "-loss needs -degraded"},
		{[]string{"-chaos", "-loss", "0.1"}, "-loss needs -degraded"},
		{[]string{"-crash-at", "5ms"}, "-crash-at needs -chaos"},
		{[]string{"-degraded", "-fault-plan", "plan.json"}, "-fault-plan needs -chaos"},
		{[]string{"-chaos", "-crash-at", "5ms", "-fault-plan", "plan.json"}, "exclusive"},
		{[]string{"-chaos", "-noisy"}, "-chaos and -noisy are exclusive"},
		{[]string{"-chaos", "-seeds", "-1"}, "-seeds -1: want at least 1"},
		{[]string{"-seeds", "0"}, "-seeds 0: want at least 1"},
		{[]string{"-fig", "5", "-parallel", "-4"}, "-parallel -4: want at least 1"},
		{[]string{"-fig", "99"}, "unknown id"},
		{[]string{"-chaos", "-fault-plan", filepath.Join(dir, "missing.json")}, "missing.json"},
	} {
		// The temporary directory is left out of the name so that it is the same on every run.
		name := strings.ReplaceAll(strings.Join(tc.args, " "), dir+string(filepath.Separator), "")
		t.Run(name, func(t *testing.T) {
			_, ok, err := resolve(t, tc.args...)
			if err == nil || ok {
				t.Fatalf("ok %v, err %v; want an error", ok, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
