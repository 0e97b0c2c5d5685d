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

// resolve parses args and resolves the study they select.
func resolve(t *testing.T, args ...string) (experiments.Study, bool, error) {
	t.Helper()
	fs, o := newFlags(flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o.study(fs)
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
				if len(s.Points) != 1 || s.Points[0].CSV != "0" {
					t.Errorf("points = %+v, want the single 0 loss rate", s.Points)
				}
			},
		},
		{
			name: "negative loss passes through",
			args: []string{"-degraded", "-loss", "-0.5"},
			id:   "degraded",
			check: func(t *testing.T, s experiments.Study) {
				if len(s.Points) != 1 || s.Points[0].CSV != "-0.5" {
					t.Errorf("points = %+v, want the single -0.5 loss rate", s.Points)
				}
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

func TestStudyFlagErrors(t *testing.T) {
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
		{[]string{"-chaos", "-fault-plan", filepath.Join(t.TempDir(), "missing.json")}, "missing.json"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
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
