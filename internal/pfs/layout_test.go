package pfs

import (
	"reflect"
	"testing"
	"testing/quick"

	"sais/internal/netsim"
	"sais/internal/rng"
	"sais/internal/units"
)

func testLayout(ns int) Layout {
	servers := make([]netsim.NodeID, ns)
	for i := range servers {
		servers[i] = netsim.NodeID(100 + i)
	}
	return Layout{StripSize: 64 * units.KiB, Servers: servers}
}

func TestLayoutValidate(t *testing.T) {
	if err := testLayout(4).Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{StripSize: 0, Servers: []netsim.NodeID{1}},
		{StripSize: 64 * units.KiB},
		{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{1, 1}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: bad layout accepted", i)
		}
	}
}

// TestLayoutValidateNamesFirstRepeat: the duplicate check sorts a copy
// of the server list, but the error still names the first server that
// repeats in list order.
func TestLayoutValidateNamesFirstRepeat(t *testing.T) {
	l := Layout{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{3, 2, 1, 3, 1}}
	err := l.Validate()
	if err == nil || err.Error() != "pfs: duplicate server 3 in layout" {
		t.Errorf("err = %v, want pfs: duplicate server 3 in layout", err)
	}
	if !reflect.DeepEqual(l.Servers, []netsim.NodeID{3, 2, 1, 3, 1}) {
		t.Errorf("validation reordered the server list: %v", l.Servers)
	}
}

// TestLayoutValidateWithAllocsNothing: with a warmed scratch buffer,
// validating a layout (as a client does on every file open) allocates
// nothing.
func TestLayoutValidateWithAllocsNothing(t *testing.T) {
	l := testLayout(48)
	scratch, err := l.ValidateWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch, err = l.ValidateWith(scratch)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("ValidateWith allocates %.0f times per call, want 0", allocs)
	}
}

func TestExtentsAlignedTransfer(t *testing.T) {
	l := testLayout(4)
	// 1 MiB transfer at offset 0 = 16 strips over 4 servers, 4 each.
	plans, err := l.Extents(0, units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("plans for %d servers, want 4", len(plans))
	}
	for si, p := range plans {
		if len(p.Pieces) != 4 {
			t.Errorf("server %d has %d pieces, want 4", si, len(p.Pieces))
		}
		for j, piece := range p.Pieces {
			if piece.Size != 64*units.KiB {
				t.Errorf("piece size = %v", piece.Size)
			}
			wantStrip := si + 4*j
			if piece.GlobalStrip != wantStrip {
				t.Errorf("server %d piece %d strip = %d, want %d", si, j, piece.GlobalStrip, wantStrip)
			}
			wantLocal := units.Bytes(j) * 64 * units.KiB
			if piece.ServerOffset != wantLocal {
				t.Errorf("server %d piece %d local offset = %v, want %v", si, j, piece.ServerOffset, wantLocal)
			}
		}
	}
}

func TestExtentsWithOffset(t *testing.T) {
	l := testLayout(2)
	// Transfer starting at strip 3 (offset 192 KiB), length 128 KiB:
	// strips 3 (server 1, local 1*64K) and 4 (server 0, local 2*64K).
	plans, err := l.Extents(192*units.KiB, 128*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	var s0, s1 *ServerPlan
	for i := range plans {
		switch plans[i].ServerIdx {
		case 0:
			s0 = &plans[i]
		case 1:
			s1 = &plans[i]
		}
	}
	if s1 == nil || s1.Pieces[0].GlobalStrip != 3 || s1.Pieces[0].ServerOffset != 64*units.KiB {
		t.Errorf("server1 plan = %+v", s1)
	}
	if s0 == nil || s0.Pieces[0].GlobalStrip != 4 || s0.Pieces[0].ServerOffset != 128*units.KiB {
		t.Errorf("server0 plan = %+v", s0)
	}
}

func TestExtentsUnaligned(t *testing.T) {
	l := testLayout(2)
	// 100 KiB starting 10 KiB into strip 0: piece A = 54 KiB of strip 0,
	// piece B = 46 KiB of strip 1.
	plans, err := l.Extents(10*units.KiB, 100*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	var total units.Bytes
	for _, p := range plans {
		for _, piece := range p.Pieces {
			total += piece.Size
		}
	}
	if total != 100*units.KiB {
		t.Errorf("pieces sum to %v, want 100KiB", total)
	}
}

func TestExtentsErrors(t *testing.T) {
	l := testLayout(2)
	if _, err := l.Extents(-1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := l.Extents(0, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := (Layout{}).Extents(0, 10); err == nil {
		t.Error("invalid layout accepted")
	}
}

// TestAppendExtentsReusesBuffer maps random ranges into one buffer kept
// across calls, whose plans still hold earlier pieces: every result must
// equal a fresh mapping, and once grown the buffer must take no further
// allocation.
func TestAppendExtentsReusesBuffer(t *testing.T) {
	r := rng.New(5)
	var buf []ServerPlan
	for i := 0; i < 300; i++ {
		l := testLayout(r.Intn(8) + 1)
		offset := units.Bytes(r.Int63n(int64(4 * units.MiB)))
		length := units.Bytes(r.Int63n(int64(units.MiB))) + 1
		want, err := l.Extents(offset, length)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = l.AppendExtents(buf[:0], offset, length)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("reused buffer gave %+v, want %+v", buf, want)
		}
	}

	l := testLayout(48)
	var off units.Bytes
	next := func() {
		buf, _ = l.AppendExtents(buf[:0], off, units.MiB)
		off = (off + units.MiB) % (64 * units.MiB)
	}
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Errorf("AppendExtents into a reused buffer allocates %v times", allocs)
	}
}

func TestStripCount(t *testing.T) {
	l := testLayout(4)
	if got := l.StripCount(0, units.MiB); got != 16 {
		t.Errorf("StripCount(0,1MiB) = %d, want 16", got)
	}
	if got := l.StripCount(63*units.KiB, 2*units.KiB); got != 2 {
		t.Errorf("straddling count = %d, want 2", got)
	}
	if got := l.StripCount(0, 0); got != 0 {
		t.Errorf("zero length count = %d", got)
	}
}

// Property: extents partition the byte range exactly — sizes sum to
// length, pieces are disjoint, and local offsets are consistent with
// the round-robin distribution.
func TestExtentsPartitionProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		ns := r.Intn(8) + 1
		l := testLayout(ns)
		offset := units.Bytes(r.Int63n(int64(4 * units.MiB)))
		length := units.Bytes(r.Int63n(int64(4*units.MiB))) + 1
		plans, err := l.Extents(offset, length)
		if err != nil {
			return false
		}
		var total units.Bytes
		seen := map[int]bool{}
		for _, p := range plans {
			var prevOff units.Bytes = -1
			for _, piece := range p.Pieces {
				if piece.Size <= 0 || piece.Size > l.StripSize {
					return false
				}
				if piece.GlobalStrip%ns != p.ServerIdx {
					return false
				}
				if seen[piece.GlobalStrip] {
					return false // a strip may appear at most once
				}
				seen[piece.GlobalStrip] = true
				if piece.ServerOffset <= prevOff {
					return false // ascending local order
				}
				prevOff = piece.ServerOffset
				total += piece.Size
			}
		}
		return total == length && len(seen) == l.StripCount(offset, length)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestReadRequestTotalBytes(t *testing.T) {
	r := ReadRequest{Pieces: []Piece{{Size: 10}, {Size: 20}}}
	if r.TotalBytes() != 30 {
		t.Errorf("TotalBytes = %d", r.TotalBytes())
	}
}

func TestLocalBytes(t *testing.T) {
	l := testLayout(4)
	l.Size = units.MiB // 16 strips over 4 servers: 4 each
	for i := 0; i < 4; i++ {
		if got := l.LocalBytes(i); got != 256*units.KiB {
			t.Errorf("server %d local = %v, want 256KiB", i, got)
		}
	}
	// 17 strips: the extra one lands on server 0.
	l.Size = units.MiB + 1
	if got := l.LocalBytes(0); got != 320*units.KiB {
		t.Errorf("server 0 local = %v, want 320KiB", got)
	}
	if got := l.LocalBytes(1); got != 256*units.KiB {
		t.Errorf("server 1 local = %v", got)
	}
	// Unknown size disables the computation.
	l.Size = 0
	if l.LocalBytes(0) != 0 {
		t.Error("zero size should report 0")
	}
}
