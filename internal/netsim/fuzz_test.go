package netsim

import "testing"

// FuzzUnmarshalIPv4 drives the header codec with arbitrary bytes: it
// must never panic, and any accepted header must re-marshal to bytes
// that decode to the same fields.
func FuzzUnmarshalIPv4(f *testing.F) {
	good, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6}).Marshal()
	f.Add(good)
	opts, _ := Hint(7).OptionsBytes()
	withOpts, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6, Options: opts}).Marshal()
	f.Add(withOpts)
	f.Add([]byte{0x45, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := UnmarshalIPv4(data)
		if err != nil {
			if h.Options != nil || h.TotalLen != 0 || n != 0 {
				t.Fatalf("error with non-zero result: %+v %d", h, n)
			}
			return
		}
		out, err := h.Marshal()
		if err != nil {
			t.Fatalf("accepted header does not re-marshal: %v", err)
		}
		h2, _, err := UnmarshalIPv4(out)
		if err != nil {
			t.Fatalf("re-marshaled header rejected: %v", err)
		}
		if h2.TotalLen != h.TotalLen || h2.SrcIP != h.SrcIP || h2.DstIP != h.DstIP {
			t.Fatalf("round trip drift: %+v vs %+v", h, h2)
		}
	})
}

// FuzzParseOptions drives the SrcParser with arbitrary option bytes.
func FuzzParseOptions(f *testing.F) {
	opts, _ := Hint(31).OptionsBytes()
	f.Add(opts)
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := ParseOptions(data)
		if h.Valid && (h.Core < 0 || h.Core >= MaxCores) {
			t.Fatalf("hint out of range: %+v", h)
		}
	})
}
