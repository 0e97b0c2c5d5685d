// Fixture for allocfree's cross-package facts: the dependency's
// annotation and proof status arrive through Pass.Deps exactly as a
// dependency .vetx file would carry them.
package main

import (
	"encoding/binary"

	"sais/internal/afdep"
)

//saisvet:allocfree
func hot(x int, b []byte) int {
	afdep.Fast(x) // no finding: annotated allocation-free in its own package
	afdep.Slow()  // want `call to sais/internal/afdep.Slow, which is not allocation-free .slice literal`
	var q afdep.Queue[int]
	q.Len()                        // no finding: the instantiation resolves to the annotated generic method
	q.Grow()                       // want `Queue\[T\]\).Grow, which is not allocation-free .make`
	_ = binary.BigEndian.Uint16(b) // no finding: a trusted byte-order accessor
	return x
}

func main() {}
