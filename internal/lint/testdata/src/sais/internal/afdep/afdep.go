// Package afdep is a fixture dependency for the allocfree
// cross-package tests: one annotated allocation-free function and one
// allocating function whose proof status travels as an AllocWhy fact.
package afdep

//saisvet:allocfree
func Fast(x int) int { return x + 1 }

// Slow allocates. No finding here (it is unannotated), but annotated
// callers in other packages must not call it.
func Slow() []int { return []int{1} }

// Queue is a generic fixture type: a call through any instantiation
// resolves to the generic declaration and its facts.
type Queue[T any] struct{ buf []T }

//saisvet:allocfree
func (q *Queue[T]) Len() int { return len(q.buf) }

// Grow allocates.
func (q *Queue[T]) Grow() { q.buf = make([]T, 2*len(q.buf)+1) }
