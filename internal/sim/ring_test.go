package sim

import "testing"

// TestRingDeque checks both ends against a slice model across several
// growths and wrap-arounds.
func TestRingDeque(t *testing.T) {
	var r Ring[int]
	var model []int
	next := 0
	for step := 0; step < 500; step++ {
		switch {
		case step%7 == 3 && len(model) > 0:
			if got := r.PopFront(); got != model[0] {
				t.Fatalf("step %d: PopFront = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		case step%5 == 1:
			r.PushFront(next)
			model = append([]int{next}, model...)
			next++
		default:
			r.PushBack(next)
			model = append(model, next)
			next++
		}
		if r.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
		}
		if len(model) > 0 && *r.Front() != model[0] {
			t.Fatalf("step %d: Front = %d, want %d", step, *r.Front(), model[0])
		}
	}
	for len(model) > 0 {
		if got := r.PopFront(); got != model[0] {
			t.Fatalf("drain: PopFront = %d, want %d", got, model[0])
		}
		model = model[1:]
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PopFront of an empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.PopFront()
}
