package apic

import (
	"testing"

	"sais/internal/sim"
	"sais/internal/units"
)

// pickRouter always routes to a fixed core.
type pickRouter struct{ core int }

func (p pickRouter) Route(Vector, int, uint64, []int, units.Time) int { return p.core }
func (p pickRouter) Name() string                                     { return "pick" }

// hintRouter routes to the hint, or core 0.
type hintRouter struct{}

func (hintRouter) Route(_ Vector, hint int, _ uint64, _ []int, _ units.Time) int {
	if hint == NoHint {
		return 0
	}
	return hint
}
func (hintRouter) Name() string { return "hint" }

func newSystem(t *testing.T, n int, latency units.Time) (*sim.Engine, *IOAPIC, []*LocalAPIC) {
	t.Helper()
	eng := sim.NewEngine()
	locals := make([]*LocalAPIC, n)
	for i := range locals {
		locals[i] = NewLocalAPIC(eng, i, latency)
	}
	return eng, NewIOAPIC(eng, locals), locals
}

func TestDeliveryWithLatency(t *testing.T) {
	eng, io, locals := newSystem(t, 2, 200)
	io.SetRouter(pickRouter{core: 1})
	var got []struct {
		vec  Vector
		core int
		at   units.Time
	}
	for i, l := range locals {
		i := i
		l.SetHandler(func(v Vector, now units.Time) {
			got = append(got, struct {
				vec  Vector
				core int
				at   units.Time
			}{v, i, now})
		})
	}
	eng.At(100, func(units.Time) {
		if dest := io.Raise(33, NoHint, 0); dest != 1 {
			t.Errorf("Raise routed to %d, want 1", dest)
		}
	})
	eng.RunUntilIdle()
	if len(got) != 1 || got[0].vec != 33 || got[0].core != 1 || got[0].at != 300 {
		t.Errorf("delivered = %+v", got)
	}
	if locals[1].Accepted() != 1 || locals[0].Accepted() != 0 {
		t.Error("accepted counters wrong")
	}
}

func TestHintRouting(t *testing.T) {
	eng, io, locals := newSystem(t, 4, 0)
	io.SetRouter(hintRouter{})
	counts := make([]int, 4)
	for i, l := range locals {
		i := i
		l.SetHandler(func(Vector, units.Time) { counts[i]++ })
	}
	eng.At(0, func(units.Time) {
		io.Raise(1, 2, 0)
		io.Raise(1, 2, 0)
		io.Raise(1, NoHint, 0)
	})
	eng.RunUntilIdle()
	if counts[2] != 2 || counts[0] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestRedirectionTableRestricts(t *testing.T) {
	eng, io, locals := newSystem(t, 4, 0)
	io.SetRouter(hintRouter{})
	io.Program(7, []int{1, 3})
	counts := make([]int, 4)
	for i, l := range locals {
		i := i
		l.SetHandler(func(Vector, units.Time) { counts[i]++ })
	}
	eng.At(0, func(units.Time) {
		io.Raise(7, 2, 0) // hint outside allowed set -> misroute fallback
		io.Raise(7, 3, 0) // allowed
	})
	eng.RunUntilIdle()
	if counts[1] != 1 || counts[3] != 1 || counts[2] != 0 {
		t.Errorf("counts = %v, want fallback to core 1 and direct to 3", counts)
	}
	if io.Stats().Misroutes != 1 {
		t.Errorf("misroutes = %d, want 1", io.Stats().Misroutes)
	}
	if io.Stats().Raised != 2 {
		t.Errorf("raised = %d, want 2", io.Stats().Raised)
	}
}

func TestProgramValidatesCores(t *testing.T) {
	_, io, _ := newSystem(t, 2, 0)
	defer func() {
		if recover() == nil {
			t.Error("Program with out-of-range core did not panic")
		}
	}()
	io.Program(1, []int{5})
}

func TestRaiseWithoutRouterPanics(t *testing.T) {
	_, io, _ := newSystem(t, 2, 0)
	defer func() {
		if recover() == nil {
			t.Error("Raise with no router did not panic")
		}
	}()
	io.Raise(1, NoHint, 0)
}

func TestMaskQueuesAndUnmaskFlushes(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLocalAPIC(eng, 0, 0)
	var got []Vector
	l.SetHandler(func(v Vector, _ units.Time) { got = append(got, v) })
	eng.At(0, func(units.Time) {
		l.Mask()
		l.Accept(1)
		l.Accept(2)
		if l.PendingCount() != 2 {
			t.Errorf("pending = %d, want 2", l.PendingCount())
		}
	})
	eng.At(10, func(units.Time) {
		if len(got) != 0 {
			t.Error("masked APIC delivered interrupts")
		}
		l.Unmask()
		l.Unmask() // idempotent
	})
	eng.RunUntilIdle()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("flushed = %v, want [1 2] in order", got)
	}
	if l.Masked() {
		t.Error("still masked")
	}
}

func TestEmptyLocalsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewIOAPIC with no locals did not panic")
		}
	}()
	NewIOAPIC(sim.NewEngine(), nil)
}

func TestNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	NewLocalAPIC(sim.NewEngine(), 0, -1)
}

// TestRoutingAllocFree checks that steering an unprogrammed vector and
// delivering it through a local APIC allocate nothing in steady state.
func TestRoutingAllocFree(t *testing.T) {
	eng, io, locals := newSystem(t, 4, 200)
	io.SetRouter(hintRouter{})
	delivered := 0
	locals[3].SetHandler(func(Vector, units.Time) { delivered++ })
	if allocs := testing.AllocsPerRun(100, func() { io.RouteFor(1, 2, 7) }); allocs != 0 {
		t.Errorf("RouteFor allocates %v times", allocs)
	}
	raise := func() {
		io.Raise(1, 3, 7)
		io.Raise(1, 3, 8)
		eng.RunUntilIdle()
	}
	if allocs := testing.AllocsPerRun(100, raise); allocs != 0 {
		t.Errorf("Raise to handler allocates %v times", allocs)
	}
	if delivered != 2*101 {
		t.Errorf("delivered = %d, want %d", delivered, 2*101)
	}
}
