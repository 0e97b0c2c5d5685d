package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer shares are read from the CPU profile runtime/pprof writes: a
// gzipped protocol buffer (the profile.proto schema). Only the fields
// needed to walk each sample's stack are decoded; the standard library
// has no reader for the format and the module takes no dependencies.

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errProfile = errors.New("malformed CPU profile")

// fields calls fn for each top-level field of a protobuf message. For
// varint fields data is nil; for length-delimited fields v is 0.
func fields(b []byte, fn func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
			fn(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field occurrence, which is
// either one varint or a packed run of them.
func appendUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProfile
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// stackSample is one profile sample: its function names innermost
// first (inlined frames expanded) and its sample count.
type stackSample struct {
	funcs []string
	count int64
}

// decodeProfile reads a gzipped runtime/pprof CPU profile.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
		inner     error
	)
	keep := func(err error) {
		if err != nil && inner == nil {
			inner = err
		}
	}
	err = fields(raw, func(num int, _ uint64, data []byte) {
		switch num {
		case profSample:
			var s rawSample
			keep(fields(data, func(n int, v uint64, d []byte) {
				var err error
				switch n {
				case sampleLocationID:
					s.locs, err = appendUints(s.locs, v, d)
				case sampleValue:
					s.vals, err = appendUints(s.vals, v, d)
				}
				keep(err)
			}))
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			keep(fields(data, func(n int, v uint64, d []byte) {
				switch n {
				case locationID:
					id = v
				case locationLine:
					keep(fields(d, func(n int, v uint64, _ []byte) {
						if n == lineFunction {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			keep(fields(data, func(n int, v uint64, _ []byte) {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = v
				}
			}))
			funcNames[id] = name
		case profStringTable:
			strs = append(strs, string(data))
		}
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errProfile
		}
		ss := stackSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProfile
				}
				ss.funcs = append(ss.funcs, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// simPackage returns the last import-path element of a function in the
// sais module ("sais/internal/netsim.(*NIC).Send" → "netsim"), or ""
// for a function outside it.
func simPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, "sais/")
	if !ok {
		return ""
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// gcFrames mark samples of the garbage collector's own goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// hostShares charges each sample taken inside a cluster run to the
// package of its innermost sais frame, so runtime work such as mallocgc
// is charged to the layer that caused it. Samples of the collector's own
// goroutines are charged to "gc". Other samples, such as the
// benchmark's output checks, are left out. It returns each owner's
// share of the charged samples.
func hostShares(samples []stackSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		owner, inRun := "", false
		for _, fn := range s.funcs {
			pkg := simPackage(fn)
			if owner == "" {
				owner = pkg
			}
			inRun = inRun || pkg == "cluster"
		}
		if owner == "" && isGC(s.funcs) {
			owner, inRun = "gc", true
		}
		if !inRun {
			continue
		}
		counts[owner] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for k, c := range counts {
		shares[k] = float64(c) / float64(total)
	}
	return shares
}

func isGC(funcs []string) bool {
	for _, fn := range funcs {
		for _, g := range gcFrames {
			if fn == g {
				return true
			}
		}
	}
	return false
}
