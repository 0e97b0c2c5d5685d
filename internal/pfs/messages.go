package pfs

import (
	"sais/internal/netsim"
	"sais/internal/units"
)

// Message bodies exchanged between client and file-system nodes. They
// ride as the opaque Body of netsim frames; the affinity hint travels
// separately in the frame's IP options (the wire truth), exactly as in
// the prototype.
//
// The four bodies of the per-strip round trip (ReadRequest, StripData,
// StripWrite, WriteAck) come from the sending engine's Bodies pool.
// Ownership passes with the frame: the sender gives the body up at
// Send, and the node that reads it last returns it to its own engine's
// pool once it has read the fields. A body lost with its frame (loss,
// corruption, a full rx ring, a crashed server) is simply not returned.
// Layout messages are rare and are not pooled.

// RequestSize is the on-wire payload size of a read request message.
const RequestSize = 128 * units.Byte

// LayoutRequestSize is the payload size of a metadata (open) query.
const LayoutRequestSize = 64 * units.Byte

// LayoutReplySize is the payload size of a metadata reply.
const LayoutReplySize = 256 * units.Byte

// ReadRequest asks one I/O server for the pieces of a transfer it
// holds.
type ReadRequest struct {
	File   FileID
	Tag    uint64 // client-chosen id of the whole transfer
	Client netsim.NodeID
	Pieces []Piece // local pieces to return, ascending offset
	// LocalEOF is the size of this server's local portion of the file,
	// bounding readahead. Zero disables server-side prefetch.
	LocalEOF units.Bytes
	// left counts the pieces whose StripData the server has not sent
	// yet; the last one sent returns the request to the pool.
	left int
}

// TotalBytes sums the piece sizes.
func (r *ReadRequest) TotalBytes() units.Bytes {
	var n units.Bytes
	for _, p := range r.Pieces {
		n += p.Size
	}
	return n
}

// StripData is one returned strip piece. The data bytes themselves are
// represented by the frame payload size.
type StripData struct {
	File        FileID
	Tag         uint64
	GlobalStrip int
	Size        units.Bytes
}

// StripWrite carries one strip of write data to an I/O server; the
// frame payload is the strip's bytes.
type StripWrite struct {
	File         FileID
	Tag          uint64
	Client       netsim.NodeID
	GlobalStrip  int
	ServerOffset units.Bytes
	Size         units.Bytes
}

// WriteAck acknowledges one written strip back to the client. Writes
// are acknowledged from the server's buffer cache (write-back); the
// platter flush happens asynchronously.
type WriteAck struct {
	File        FileID
	Tag         uint64
	GlobalStrip int
	Size        units.Bytes
}

// WriteAckSize is the on-wire payload size of a write acknowledgement.
const WriteAckSize = 64 * units.Byte

// LayoutRequest is the metadata query issued at file open.
type LayoutRequest struct {
	File   FileID
	Tag    uint64
	Client netsim.NodeID
}

// LayoutReply returns the file's striping layout.
type LayoutReply struct {
	Tag    uint64
	File   FileID
	Layout Layout
}

// Bodies recycles the message bodies of the per-strip round trip on
// one engine. A sender takes a body from the list of its type and
// overwrites every field; the final reader puts it back (the comment at
// the top of this file says who that is). One Bodies serves every node
// of an engine and is only touched from that engine's goroutine.
type Bodies struct {
	Requests FreeList[ReadRequest]
	Strips   FreeList[StripData]
	Writes   FreeList[StripWrite]
	Acks     FreeList[WriteAck]
}

// maxFree caps each free list. In a sharded run a body returns to the
// pool of the engine that read it last, so a shard that only receives
// one type would otherwise keep every body of that type it ever saw.
const maxFree = 1 << 14

// FreeList is a stack of recycled bodies of one type.
type FreeList[T any] struct{ free []*T }

// Get returns a recycled body, or a new one when the list is empty.
// Its fields hold stale values: the caller overwrites them all.
//
//saisvet:allocfree
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	//lint:alloc pool growth to the peak number of bodies in flight on the engine
	return new(T)
}

// Put returns a body its final reader is done with. The body must not
// be referenced afterwards, and must not be put twice.
//
//saisvet:allocfree
func (l *FreeList[T]) Put(b *T) {
	if len(l.free) < maxFree {
		l.free = append(l.free, b)
	}
}
