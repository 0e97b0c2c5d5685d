package client

import (
	"testing"

	"sais/internal/irqsched"
	"sais/internal/units"
)

// TestRoundTripAllocatesNothing: once the engine's pools are warm, a
// read round trip (read requests out, strip data back, consumed by the
// process) and a write round trip (strip writes out, acknowledgements
// back) allocate nothing. Every message body comes from the engine's
// pool and goes back to it.
func TestRoundTripAllocatesNothing(t *testing.T) {
	for _, write := range []bool{false, true} {
		r := newRig(t, irqsched.PolicySourceAware, 4)
		p := r.node.NewProc(0, 2)
		op := p.Read
		if write {
			op = p.Write
		}
		done := func(units.Time) {}
		start := func(units.Time) { op(1, 0, units.MiB, done) }
		roundTrip := func() {
			r.eng.At(r.eng.Now(), start)
			r.eng.RunUntilIdle()
		}
		for i := 0; i < 8; i++ {
			roundTrip()
		}
		if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
			t.Errorf("write=%v: %v allocs per warmed-up round trip, want 0", write, got)
		}
		st := r.node.Stats()
		if st.Transfers+st.WriteTransfers != 109 || st.Retries != 0 {
			t.Errorf("write=%v: stats %+v, want 109 clean transfers", write, st)
		}
	}
}
