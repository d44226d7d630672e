package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeDefault: "default",
		ModeCollect: "collect",
		ModeSource:  "source",
		Mode(9):     "mode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestRecordFailedLink(t *testing.T) {
	var h Header
	if !h.RecordFailedLink(3) {
		t.Error("first record must report change")
	}
	if h.RecordFailedLink(3) {
		t.Error("duplicate record must report no change")
	}
	if !h.RecordFailedLink(5) {
		t.Error("second distinct record must report change")
	}
	if !h.HasFailedLink(3) || !h.HasFailedLink(5) || h.HasFailedLink(4) {
		t.Errorf("failed_link content wrong: %v", h.FailedLinks)
	}
	if len(h.FailedLinks) != 2 {
		t.Errorf("failed_link length = %d, want 2", len(h.FailedLinks))
	}
}

func TestRecordCrossLink(t *testing.T) {
	var h Header
	if !h.RecordCrossLink(7) {
		t.Error("first record must report change")
	}
	if h.RecordCrossLink(7) {
		t.Error("duplicate record must report no change")
	}
	if !h.HasCrossLink(7) || h.HasCrossLink(8) {
		t.Errorf("cross_link content wrong: %v", h.CrossLinks)
	}
}

func TestRecordingBytes(t *testing.T) {
	h := Header{
		FailedLinks: []graph.LinkID{1, 2, 3},
		CrossLinks:  []graph.LinkID{4},
		SourceRoute: []graph.NodeID{5, 6},
	}
	// 16 bits per recorded ID: (3 + 1 + 2) * 2 bytes.
	if got := h.RecordingBytes(); got != 12 {
		t.Errorf("RecordingBytes = %d, want 12", got)
	}
	var empty Header
	if got := empty.RecordingBytes(); got != 0 {
		t.Errorf("empty RecordingBytes = %d, want 0", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Mode:        ModeCollect,
		RecInit:     42,
		FailedLinks: []graph.LinkID{10, 20, 30},
		CrossLinks:  []graph.LinkID{5},
		SourceRoute: []graph.NodeID{1, 2, 3, 4},
		SourceIdx:   2,
	}
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != h.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize says %d", len(b), h.EncodedSize())
	}
	got, n, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("decoded %d bytes of %d", n, len(b))
	}
	if !reflect.DeepEqual(got, h) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

// TestSourceRouteHeaderRoundTrip: a phase-2 header, as RTR's initiator
// builds it (ModeSource, rec_init, the route's nodes from index 0),
// survives the wire codec with the route intact.
func TestSourceRouteHeaderRoundTrip(t *testing.T) {
	h := Header{Mode: ModeSource, RecInit: 6, SourceRoute: []graph.NodeID{6, 5, 12, 11, 15, 17}}
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeHeader(b)
	if err != nil || n != len(b) {
		t.Fatalf("encode/decode failed: %v (%d of %d bytes)", err, n, len(b))
	}
	if !reflect.DeepEqual(normalize(got), h) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripEmpty(t *testing.T) {
	var h Header
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != ModeDefault || len(got.FailedLinks) != 0 || len(got.CrossLinks) != 0 || len(got.SourceRoute) != 0 {
		t.Errorf("empty header round trip = %+v", got)
	}
}

// TestHeaderRoundTripProperty: every header whose IDs fit the 16-bit
// fields encodes to RecordingBytes plus the fixed fields and decodes
// back to itself.
func TestHeaderRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		h := Header{
			Mode:    Mode(rng.Intn(3)),
			RecInit: graph.NodeID(rng.Intn(1 << 16)),
		}
		for i := 0; i < rng.Intn(10); i++ {
			h.FailedLinks = append(h.FailedLinks, graph.LinkID(rng.Intn(1<<16)))
		}
		for i := 0; i < rng.Intn(5); i++ {
			h.CrossLinks = append(h.CrossLinks, graph.LinkID(rng.Intn(1<<16)))
		}
		for i := 0; i < rng.Intn(12); i++ {
			h.SourceRoute = append(h.SourceRoute, graph.NodeID(rng.Intn(1<<16)))
		}
		if len(h.SourceRoute) > 0 {
			h.SourceIdx = rng.Intn(len(h.SourceRoute) + 1)
		}
		b, err := h.AppendBinary(nil)
		if err != nil || len(b) != h.RecordingBytes()+fixedWireBytes {
			return false
		}
		got, n, err := DecodeHeader(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(h))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// normalize maps nil and empty slices to a canonical form for
// comparison.
func normalize(h Header) Header {
	if len(h.FailedLinks) == 0 {
		h.FailedLinks = nil
	}
	if len(h.CrossLinks) == 0 {
		h.CrossLinks = nil
	}
	if len(h.SourceRoute) == 0 {
		h.SourceRoute = nil
	}
	return h
}

func TestDecodeHeaderErrors(t *testing.T) {
	h := Header{Mode: ModeCollect, FailedLinks: []graph.LinkID{1, 2}}
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly.
	for i := 0; i < len(b); i++ {
		if _, _, err := DecodeHeader(b[:i]); err == nil {
			t.Errorf("truncated header of %d bytes decoded without error", i)
		}
	}
	// Invalid mode.
	bad := append([]byte(nil), b...)
	bad[0] = 99
	if _, _, err := DecodeHeader(bad); err == nil {
		t.Error("invalid mode must fail")
	}
}

func TestDecodeHeaderBadSourceIdx(t *testing.T) {
	h := Header{SourceRoute: []graph.NodeID{1}, SourceIdx: 1}
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt srcIdx beyond route length: it sits after nRoute.
	// Layout: mode(1) recInit(2) nF(2) nC(2) nRoute(2) srcIdx(2)...
	b[9+0] = 0xFF
	b[9+1] = 0xFF
	if _, _, err := DecodeHeader(b); err == nil {
		t.Error("source index beyond route must fail")
	}
}

func TestAppendBinarySourceIdxValidation(t *testing.T) {
	h := Header{SourceRoute: []graph.NodeID{1, 2}, SourceIdx: 3}
	if _, err := h.AppendBinary(nil); err == nil {
		t.Error("out-of-range SourceIdx must fail to encode")
	}
	h.SourceIdx = -1
	if _, err := h.AppendBinary(nil); err == nil {
		t.Error("negative SourceIdx must fail to encode")
	}
}

func TestAppendBinaryIDOverflow(t *testing.T) {
	// In-memory IDs are 32-bit but the paper's wire format is 16-bit;
	// encoding a header whose IDs exceed the wire ceiling must fail
	// with ErrIDOverflow rather than truncate silently.
	cases := []Header{
		{RecInit: 0x10000},
		{FailedLinks: []graph.LinkID{0x10000}},
		{CrossLinks: []graph.LinkID{0x1FFFF}},
		{SourceRoute: []graph.NodeID{0x20000}},
	}
	for i, h := range cases {
		if _, err := h.AppendBinary(nil); !errors.Is(err, ErrIDOverflow) {
			t.Errorf("case %d: err = %v, want ErrIDOverflow", i, err)
		}
	}
	// At exactly the ceiling the encode must still round-trip.
	h := Header{RecInit: 0xFFFF, FailedLinks: []graph.LinkID{0xFFFF}}
	b, err := h.AppendBinary(nil)
	if err != nil {
		t.Fatalf("ceiling encode: %v", err)
	}
	got, _, err := DecodeHeader(b)
	if err != nil {
		t.Fatalf("ceiling decode: %v", err)
	}
	if got.RecInit != 0xFFFF || got.FailedLinks[0] != 0xFFFF {
		t.Errorf("ceiling round-trip = %+v", got)
	}
}

func TestHeaderClone(t *testing.T) {
	h := Header{
		Mode:        ModeCollect,
		FailedLinks: []graph.LinkID{1},
		CrossLinks:  []graph.LinkID{2},
		SourceRoute: []graph.NodeID{3},
	}
	c := h.Clone()
	c.FailedLinks[0] = 99
	c.CrossLinks[0] = 99
	c.SourceRoute[0] = 99
	if h.FailedLinks[0] == 99 || h.CrossLinks[0] == 99 || h.SourceRoute[0] == 99 {
		t.Error("Clone must deep-copy slices")
	}
}

// BenchmarkHeaderCodec measures the packet-header wire codec round
// trip at a typical phase-1 header size.
func BenchmarkHeaderCodec(b *testing.B) {
	h := Header{
		Mode:        ModeCollect,
		RecInit:     42,
		FailedLinks: []graph.LinkID{3, 9, 17, 21, 80},
		CrossLinks:  []graph.LinkID{5, 44},
	}
	buf := make([]byte, 0, h.EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = h.AppendBinary(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := DecodeHeader(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDelayModel(t *testing.T) {
	if HopDelay != 1800*time.Microsecond {
		t.Errorf("HopDelay = %v, want 1.8ms (paper's Section IV-B)", HopDelay)
	}
	if RouterDelay != 100*time.Microsecond || PropDelay != 1700*time.Microsecond {
		t.Error("delay components must match the paper")
	}
}

// The paper's wire format for the header, kept here as the reference
// for what RecordingBytes prices: the encoding is the recorded IDs at
// 16 bits each plus fixedWireBytes of mode, rec_init, counts and
// source index. Production code never serialises a header.

// fixedWireBytes is the part of an encoded header that does not grow
// with the recorded IDs.
const fixedWireBytes = 1 + 2 + 2 + 2 + 2 + 2

// EncodedSize is the exact number of bytes AppendBinary emits.
func (h *Header) EncodedSize() int {
	return fixedWireBytes + 2*(len(h.FailedLinks)+len(h.CrossLinks)+len(h.SourceRoute))
}

// Wire format (big endian):
//
//	mode     uint8
//	rec_init uint16
//	nFailed  uint16, then nFailed x uint16
//	nCross   uint16, then nCross x uint16
//	nRoute   uint16, srcIdx uint16, then nRoute x uint16

// ErrIDOverflow is returned when an in-memory 32-bit node or link ID
// does not fit the paper's 16-bit wire fields. Topologies past the
// 65535-ID ceiling can be simulated but their headers cannot be
// serialized in the paper's format.
var ErrIDOverflow = errors.New("routing: ID exceeds 16-bit wire field")

// AppendBinary appends the wire encoding of h to b.
func (h *Header) AppendBinary(b []byte) ([]byte, error) {
	if len(h.FailedLinks) > 0xFFFF || len(h.CrossLinks) > 0xFFFF || len(h.SourceRoute) > 0xFFFF {
		return nil, errors.New("routing: header field too long to encode")
	}
	if h.SourceIdx < 0 || h.SourceIdx > len(h.SourceRoute) {
		return nil, fmt.Errorf("routing: source index %d out of range [0,%d]", h.SourceIdx, len(h.SourceRoute))
	}
	if h.RecInit > 0xFFFF {
		return nil, fmt.Errorf("%w: rec_init node %d", ErrIDOverflow, h.RecInit)
	}
	b = append(b, byte(h.Mode))
	b = binary.BigEndian.AppendUint16(b, uint16(h.RecInit))
	b = binary.BigEndian.AppendUint16(b, uint16(len(h.FailedLinks)))
	for _, id := range h.FailedLinks {
		if id > 0xFFFF {
			return nil, fmt.Errorf("%w: failed_link %d", ErrIDOverflow, id)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(h.CrossLinks)))
	for _, id := range h.CrossLinks {
		if id > 0xFFFF {
			return nil, fmt.Errorf("%w: cross_link %d", ErrIDOverflow, id)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(h.SourceRoute)))
	b = binary.BigEndian.AppendUint16(b, uint16(h.SourceIdx))
	for _, id := range h.SourceRoute {
		if id > 0xFFFF {
			return nil, fmt.Errorf("%w: source-route node %d", ErrIDOverflow, id)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(id))
	}
	return b, nil
}

// ErrShortHeader is returned when a header buffer is truncated.
var ErrShortHeader = errors.New("routing: short header")

// DecodeHeader parses a header from b and returns it together with the
// number of bytes consumed.
func DecodeHeader(b []byte) (Header, int, error) {
	var h Header
	off := 0
	u8 := func() (byte, error) {
		if off+1 > len(b) {
			return 0, ErrShortHeader
		}
		v := b[off]
		off++
		return v, nil
	}
	u16 := func() (uint16, error) {
		if off+2 > len(b) {
			return 0, ErrShortHeader
		}
		v := binary.BigEndian.Uint16(b[off:])
		off += 2
		return v, nil
	}

	m, err := u8()
	if err != nil {
		return h, 0, err
	}
	if m > uint8(ModeSource) {
		return h, 0, fmt.Errorf("routing: invalid mode %d", m)
	}
	h.Mode = Mode(m)
	ri, err := u16()
	if err != nil {
		return h, 0, err
	}
	h.RecInit = graph.NodeID(ri)

	nf, err := u16()
	if err != nil {
		return h, 0, err
	}
	if nf > 0 {
		h.FailedLinks = make([]graph.LinkID, nf)
		for i := range h.FailedLinks {
			v, err := u16()
			if err != nil {
				return h, 0, err
			}
			h.FailedLinks[i] = graph.LinkID(v)
		}
	}

	nc, err := u16()
	if err != nil {
		return h, 0, err
	}
	if nc > 0 {
		h.CrossLinks = make([]graph.LinkID, nc)
		for i := range h.CrossLinks {
			v, err := u16()
			if err != nil {
				return h, 0, err
			}
			h.CrossLinks[i] = graph.LinkID(v)
		}
	}

	nr, err := u16()
	if err != nil {
		return h, 0, err
	}
	si, err := u16()
	if err != nil {
		return h, 0, err
	}
	if int(si) > int(nr) {
		return h, 0, fmt.Errorf("routing: source index %d beyond route length %d", si, nr)
	}
	h.SourceIdx = int(si)
	if nr > 0 {
		h.SourceRoute = make([]graph.NodeID, nr)
		for i := range h.SourceRoute {
			v, err := u16()
			if err != nil {
				return h, 0, err
			}
			h.SourceRoute[i] = graph.NodeID(v)
		}
	}
	return h, off, nil
}

// Clone returns a deep copy of the header.
func (h *Header) Clone() Header {
	c := *h
	c.FailedLinks = append([]graph.LinkID(nil), h.FailedLinks...)
	c.CrossLinks = append([]graph.LinkID(nil), h.CrossLinks...)
	c.SourceRoute = append([]graph.NodeID(nil), h.SourceRoute...)
	return c
}
