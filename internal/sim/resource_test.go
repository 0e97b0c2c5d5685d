package sim

import (
	"testing"

	"sais/internal/units"
)

func TestServerSerializesJobs(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "nic")
	var done []units.Time
	e.At(0, func(units.Time) {
		s.Submit(10, func(now units.Time) { done = append(done, now) })
		s.Submit(5, func(now units.Time) { done = append(done, now) })
		s.Submit(1, func(now units.Time) { done = append(done, now) })
	})
	e.RunUntilIdle()
	want := []units.Time{10, 15, 16}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d completed at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "disk")
	var second units.Time
	e.At(0, func(units.Time) { s.Submit(10, nil) })
	e.At(100, func(units.Time) {
		s.Submit(10, func(now units.Time) { second = now })
	})
	e.RunUntilIdle()
	if second != 110 {
		t.Errorf("job after idle gap finished at %v, want 110", second)
	}
	if s.BusyTime() != 20 {
		t.Errorf("BusyTime = %v, want 20", s.BusyTime())
	}
}

func TestServerReturnsCompletionTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	e.At(0, func(units.Time) {
		if got := s.Submit(7, nil); got != 7 {
			t.Errorf("first Submit returned %v, want 7", got)
		}
		if got := s.Submit(3, nil); got != 10 {
			t.Errorf("second Submit returned %v, want 10", got)
		}
		if got := s.Drain(); got != 10 {
			t.Errorf("Drain = %v, want 10", got)
		}
	})
	e.RunUntilIdle()
}

func TestServerStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	e.At(0, func(units.Time) {
		s.Submit(10, nil)
		s.Submit(10, nil)
		s.Submit(10, nil)
	})
	e.RunUntilIdle()
	if s.Served() != 3 {
		t.Errorf("Served = %d, want 3", s.Served())
	}
	if s.MaxQueue() != 3 {
		t.Errorf("MaxQueue = %d, want 3", s.MaxQueue())
	}
	// Jobs 2 and 3 waited 10 and 20.
	if s.WaitTime() != 30 {
		t.Errorf("WaitTime = %v, want 30", s.WaitTime())
	}
	if s.QueueLen() != 0 {
		t.Errorf("QueueLen = %d, want 0 after drain", s.QueueLen())
	}
}

// TestDrainIsDispatchInstant checks that Drain names the instant a job
// submitted now starts service: the end of queued work on a busy
// server, the current time on an idle one. Dispatch-time cost hooks
// (the NIC and pfs service scales) rely on it.
func TestDrainIsDispatchInstant(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	var finishedAt units.Time = -1
	e.At(0, func(units.Time) {
		s.Submit(25, nil)
		if got := s.Drain(); got != 25 {
			t.Errorf("busy Drain = %v, want 25", got)
		}
		s.Submit(5, func(now units.Time) { finishedAt = now })
	})
	e.At(40, func(now units.Time) {
		if got := s.Drain(); got != now {
			t.Errorf("idle Drain = %v, want now (%v)", got, now)
		}
	})
	e.RunUntilIdle()
	if finishedAt != 30 {
		t.Errorf("job queued behind 25 finished at %v, want 30", finishedAt)
	}
}

func TestNegativeCostClamped(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	e.At(0, func(units.Time) {
		fin := s.Submit(-5, nil)
		if fin != 0 {
			t.Errorf("negative cost finish = %v, want 0", fin)
		}
	})
	e.RunUntilIdle()
}

func TestBusy(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	e.At(0, func(units.Time) {
		s.Submit(10, nil)
		if !s.Busy() {
			t.Error("server should be busy right after Submit")
		}
	})
	e.At(11, func(units.Time) {
		if s.Busy() {
			t.Error("server should be idle after work drains")
		}
	})
	e.RunUntilIdle()
}

// TestServerSubmitAllocFree checks that a job's submit and completion
// allocate nothing in steady state.
func TestServerSubmitAllocFree(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	n := 0
	done := func(units.Time) { n++ }
	cycle := func() {
		s.Submit(10, done)
		s.Submit(5, nil)
		s.Submit(0, done)
		e.RunUntilIdle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("submit/complete allocates %v times", allocs)
	}
	if n != 2*101 || s.Served() != 3*101 {
		t.Errorf("done ran %d times, served %d", n, s.Served())
	}
}

// TestServerCompletesInSubmissionOrder checks that each completion runs
// its own job's callback, including zero-cost jobs finishing at the
// same instant as the job ahead of them.
func TestServerCompletesInSubmissionOrder(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x")
	var order []int
	var times []units.Time
	job := func(id int) Event {
		return func(now units.Time) {
			order = append(order, id)
			times = append(times, now)
		}
	}
	e.At(0, func(units.Time) {
		s.Submit(10, job(1))
		s.Submit(0, job(2))
		s.Submit(5, job(3))
	})
	e.At(10, func(units.Time) { s.Submit(0, job(4)) })
	e.RunUntilIdle()
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Errorf("completion order = %v, want [1 2 3 4]", order)
	}
	if len(times) != 4 || times[0] != 10 || times[1] != 10 || times[2] != 15 || times[3] != 15 {
		t.Errorf("completion times = %v, want [10 10 15 15]", times)
	}
}
