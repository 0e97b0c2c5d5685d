// Package pfs models the parallel file system (PVFS in the paper's
// prototype): round-robin striping of files over I/O server nodes, a
// metadata server answering layout queries, and I/O servers that read
// strips from a rotational disk and stream them back to the client with
// the SAIs affinity hint echoed into every data packet.
package pfs

import (
	"errors"
	"fmt"
	"slices"

	"sais/internal/netsim"
	"sais/internal/units"
)

// FileID names a file in the file system.
type FileID uint64

// Layout describes how a file is striped: strip i lives on server
// i mod len(Servers), at local offset (i div len(Servers)) * StripSize
// within that server's local portion — PVFS's simple-stripe
// distribution.
type Layout struct {
	StripSize units.Bytes
	Servers   []netsim.NodeID
	// Size is the file's total length; it bounds server-side readahead
	// (a server must not prefetch past its local portion). Zero means
	// unknown, which disables prefetch.
	Size units.Bytes
}

// LocalBytes returns the size of the local portion server serverIdx
// holds: the strips congruent to serverIdx modulo the server count.
func (l Layout) LocalBytes(serverIdx int) units.Bytes {
	if l.Size <= 0 || l.StripSize <= 0 || len(l.Servers) == 0 {
		return 0
	}
	ns := len(l.Servers)
	totalStrips := (l.Size + l.StripSize - 1) / l.StripSize
	full := totalStrips / units.Bytes(ns)
	n := full * l.StripSize
	rem := totalStrips % units.Bytes(ns)
	if units.Bytes(serverIdx) < rem {
		n += l.StripSize
	}
	// The very last strip may be partial; the overcount is at most one
	// strip and only pads readahead, never data returned.
	return n
}

// Validate checks the layout is usable: a positive strip size and at
// least one server, with no server listed twice. Layouts are validated
// once, where they are built or installed; Extents and AppendExtents
// repeat only the checks that keep them from faulting.
func (l Layout) Validate() error {
	_, err := l.ValidateWith(nil)
	return err
}

// ValidateWith is Validate checking for duplicates on scratch: it sorts
// a copy of the server list there and returns the (possibly grown)
// buffer, so a caller that keeps it validates every later layout of no
// more servers without allocating.
func (l Layout) ValidateWith(scratch []netsim.NodeID) ([]netsim.NodeID, error) {
	if err := l.check(); err != nil {
		return scratch, err
	}
	sorted := append(scratch[:0], l.Servers...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted, l.duplicate()
		}
	}
	return sorted, nil
}

// duplicate reports the first server, in list order, that an earlier
// entry already names.
func (l Layout) duplicate() error {
	for i, s := range l.Servers {
		if slices.Contains(l.Servers[:i], s) {
			return fmt.Errorf("pfs: duplicate server %d in layout", s)
		}
	}
	return nil
}

// check is the part of Validate the mapping itself depends on.
//
//saisvet:allocfree
func (l Layout) check() error {
	if l.StripSize <= 0 {
		//lint:alloc rejection of an unusable layout builds its error
		return fmt.Errorf("pfs: strip size %d must be positive", l.StripSize)
	}
	if len(l.Servers) == 0 {
		return errNoServers
	}
	return nil
}

var errNoServers = errors.New("pfs: layout needs at least one server")

// Piece is one contiguous byte range of a single strip, located on a
// server's local portion.
type Piece struct {
	GlobalStrip  int         // strip index within the file
	ServerOffset units.Bytes // byte offset within the server's local portion
	Size         units.Bytes
}

// ServerPlan lists the pieces one server must return for a request, in
// ascending local-offset order (which is also global-strip order).
type ServerPlan struct {
	ServerIdx int // index into Layout.Servers
	Server    netsim.NodeID
	Pieces    []Piece
}

// Extents maps a byte range [offset, offset+length) of the file onto
// per-server plans, in server order, leaving out servers the range does
// not touch. Arbitrary (unaligned) ranges are supported; the evaluation
// workloads use strip-aligned transfers. The result is freshly
// allocated; AppendExtents is the form that reuses a buffer.
func (l Layout) Extents(offset, length units.Bytes) ([]ServerPlan, error) {
	return l.AppendExtents(nil, offset, length)
}

// AppendExtents is Extents appending onto dst. It reuses dst's spare
// capacity, including the Pieces capacity of the plans stored there,
// so mapping into a buffer kept from the previous call allocates
// nothing once the buffer has grown to the largest range mapped.
//
//saisvet:allocfree
func (l Layout) AppendExtents(dst []ServerPlan, offset, length units.Bytes) ([]ServerPlan, error) {
	if err := l.check(); err != nil {
		return dst, err
	}
	if offset < 0 || length <= 0 {
		//lint:alloc rejection of a bad range builds its error
		return dst, fmt.Errorf("pfs: bad range offset=%d length=%d", offset, length)
	}
	ns := len(l.Servers)
	end := offset + length
	first := int(offset / l.StripSize)
	last := int((end - 1) / l.StripSize)
	//lint:alloc growth of the caller's buffer to the widest range mapped
	dst = slices.Grow(dst, min(ns, last-first+1))
	// spare backs the plans whose reused Pieces buffer is too small:
	// one block for all of them, each plan's share capped so appends
	// to one plan can never run into the next.
	var spare []Piece
	left := last - first + 1
	for srv := 0; srv < ns; srv++ {
		s0 := first + ((srv-first)%ns+ns)%ns // first strip of the range on srv
		if s0 > last {
			continue
		}
		n := (last-s0)/ns + 1
		dst = dst[:len(dst)+1]
		plan := &dst[len(dst)-1]
		pieces := plan.Pieces[:0]
		if cap(pieces) < n {
			if len(spare) < n {
				//lint:alloc growth to the widest range mapped, once per call at most
				spare = make([]Piece, left)
			}
			pieces, spare = spare[:0:n], spare[n:]
		}
		for s := s0; s <= last; s += ns {
			stripStart := units.Bytes(s) * l.StripSize
			lo, hi := max(stripStart, offset), min(stripStart+l.StripSize, end)
			pieces = append(pieces, Piece{
				GlobalStrip:  s,
				ServerOffset: units.Bytes(s/ns)*l.StripSize + (lo - stripStart),
				Size:         hi - lo,
			})
		}
		left -= n
		*plan = ServerPlan{ServerIdx: srv, Server: l.Servers[srv], Pieces: pieces}
	}
	return dst, nil
}

// StripCount returns the number of strips a range touches.
func (l Layout) StripCount(offset, length units.Bytes) int {
	if length <= 0 {
		return 0
	}
	first := offset / l.StripSize
	last := (offset + length - 1) / l.StripSize
	return int(last-first) + 1
}
