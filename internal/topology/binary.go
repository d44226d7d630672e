package topology

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Binary world-snapshot format ("rtrsnap", version 1).
//
// The text codec (codec.go) stays the human-readable interchange format
// and differential oracle; this binary format exists for scale. A 100k
// node / 300k link world is ~8 MB here versus ~25 MB of text, and both
// directions stream: the writer emits length-prefixed sections through
// one bufio.Writer, the reader consumes them record by record through
// one bufio.Reader, building the graph incrementally. Neither side ever
// materializes the whole file (or any whole section) in memory.
//
// Layout, all integers big endian:
//
//	magic   "RTRSNAP1" (8 bytes)
//	section := tag u8, byteLen u32, payload[byteLen]
//	  tag 1 name:  the topology name (UTF-8)
//	  tag 2 nodes: count u32, then count x (x f64, y f64)
//	  tag 3 links: count u32, then count x
//	                 (a u32, b u32, flag u8 [, costAB f64, costBA f64])
//	               flag 0 = unit cost both ways, 1 = explicit costs
//	  tag 255 end: crc u32 — IEEE CRC-32 over every preceding section
//	               payload (not tags or lengths), in file order
//
// Sections appear exactly once, in tag order. The trailing checksum
// lets the reader reject bit corruption that still parses; truncation
// anywhere is detected by the length prefixes and the mandatory end
// section.

// snapMagic identifies a binary snapshot file.
const snapMagic = "RTRSNAP1"

// SnapMagic is the 8-byte prefix of every binary snapshot, exported so
// tools can sniff the format of an input file.
const SnapMagic = snapMagic

const (
	secName  = 1
	secNodes = 2
	secLinks = 3
	secEnd   = 255
)

// maxNameLen bounds the name section so a corrupt length prefix cannot
// drive a huge allocation.
const maxNameLen = 1 << 12

// ErrBadSnapshot is the base error for every malformed-snapshot
// condition the binary reader detects.
var ErrBadSnapshot = errors.New("topology: bad binary snapshot")

// Progress receives streaming-codec progress: the stage ("nodes" or
// "links"), records completed so far, and the stage total. It is called
// at stage boundaries and every progressStride records in between. A
// nil Progress is allowed everywhere one is accepted.
type Progress func(stage string, done, total int)

// progressStride is how many records pass between Progress callbacks.
const progressStride = 1 << 16

func (p Progress) report(stage string, done, total int) {
	if p != nil {
		p(stage, done, total)
	}
}

// crcWriter updates a running CRC with everything written through it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// WriteBinary serializes t in the binary snapshot format, streaming
// sections through a bufio.Writer without building the encoded file in
// memory. progress may be nil.
func WriteBinary(w io.Writer, t *Topology, progress Progress) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	var scratch [17]byte

	writeHeader := func(tag byte, byteLen int) error {
		// Section headers go straight to bw: they are not covered by
		// the checksum (only payloads are).
		scratch[0] = tag
		binary.BigEndian.PutUint32(scratch[1:5], uint32(byteLen))
		_, err := bw.Write(scratch[:5])
		return err
	}

	// name
	if len(t.Name) > maxNameLen {
		return fmt.Errorf("topology %q: name longer than %d bytes", t.Name, maxNameLen)
	}
	if err := writeHeader(secName, len(t.Name)); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, t.Name); err != nil {
		return err
	}

	// nodes
	n := t.G.NumNodes()
	if err := writeHeader(secNodes, 4+16*n); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(scratch[:4], uint32(n))
	if _, err := cw.Write(scratch[:4]); err != nil {
		return err
	}
	progress.report("nodes", 0, n)
	for i, c := range t.Coords {
		binary.BigEndian.PutUint64(scratch[0:8], math.Float64bits(c.X))
		binary.BigEndian.PutUint64(scratch[8:16], math.Float64bits(c.Y))
		if _, err := cw.Write(scratch[:16]); err != nil {
			return err
		}
		if (i+1)%progressStride == 0 {
			progress.report("nodes", i+1, n)
		}
	}
	progress.report("nodes", n, n)

	// links: the payload length depends on how many links carry
	// explicit costs, so count those in a cheap pre-pass (the topology
	// is already in memory; this allocates nothing).
	e := t.G.NumLinks()
	costed := 0
	for i := 0; i < e; i++ {
		l := t.G.Link(graph.LinkID(i))
		if l.CostAB != 1 || l.CostBA != 1 {
			costed++
		}
	}
	if err := writeHeader(secLinks, 4+9*e+16*costed); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(scratch[:4], uint32(e))
	if _, err := cw.Write(scratch[:4]); err != nil {
		return err
	}
	progress.report("links", 0, e)
	for i := 0; i < e; i++ {
		l := t.G.Link(graph.LinkID(i))
		binary.BigEndian.PutUint32(scratch[0:4], uint32(l.A))
		binary.BigEndian.PutUint32(scratch[4:8], uint32(l.B))
		rec := scratch[:9]
		if l.CostAB == 1 && l.CostBA == 1 {
			scratch[8] = 0
		} else {
			scratch[8] = 1
			var costs [16]byte
			binary.BigEndian.PutUint64(costs[0:8], math.Float64bits(l.CostAB))
			binary.BigEndian.PutUint64(costs[8:16], math.Float64bits(l.CostBA))
			if _, err := cw.Write(rec); err != nil {
				return err
			}
			rec = costs[:]
		}
		if _, err := cw.Write(rec); err != nil {
			return err
		}
		if (i+1)%progressStride == 0 {
			progress.report("links", i+1, e)
		}
	}
	progress.report("links", e, e)

	// end
	if err := writeHeader(secEnd, 4); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(scratch[:4], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// binReader wraps a bufio.Reader with CRC accounting and
// section-budget checks.
type binReader struct {
	r       *bufio.Reader
	crc     uint32
	remain  int // bytes left in the current section payload
	scratch [17]byte
}

// payload reads exactly n payload bytes into the scratch buffer,
// charging them against the current section budget and the CRC.
func (br *binReader) payload(n int) ([]byte, error) {
	if n > br.remain {
		return nil, fmt.Errorf("%w: record overruns section length", ErrBadSnapshot)
	}
	buf := br.scratch[:n]
	if _, err := io.ReadFull(br.r, buf); err != nil {
		return nil, fmt.Errorf("%w: truncated: %v", ErrBadSnapshot, err)
	}
	br.remain -= n
	br.crc = crc32.Update(br.crc, crc32.IEEETable, buf)
	return buf, nil
}

func (br *binReader) u8() (byte, error) {
	b, err := br.payload(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (br *binReader) u32() (uint32, error) {
	b, err := br.payload(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (br *binReader) f64() (float64, error) {
	b, err := br.payload(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// section reads the next section header (outside any payload budget)
// and resets the payload budget to its length.
func (br *binReader) section(wantTag byte) error {
	if br.remain != 0 {
		return fmt.Errorf("%w: section has %d undeclared trailing bytes", ErrBadSnapshot, br.remain)
	}
	hdr := br.scratch[:5]
	if _, err := io.ReadFull(br.r, hdr); err != nil {
		return fmt.Errorf("%w: truncated section header: %v", ErrBadSnapshot, err)
	}
	if hdr[0] != wantTag {
		return fmt.Errorf("%w: section tag %d, want %d", ErrBadSnapshot, hdr[0], wantTag)
	}
	br.remain = int(binary.BigEndian.Uint32(hdr[1:5]))
	return nil
}

// ReadBinary parses a binary snapshot, building the topology
// incrementally from a bufio.Reader: no full-file (or full-section)
// intermediate buffer is ever allocated, so arbitrarily large
// snapshots load in O(result) memory. The result is validated like
// the text reader's. progress may be nil.
func ReadBinary(r io.Reader, progress Progress) (*Topology, error) {
	br := &binReader{r: bufio.NewReaderSize(r, 1<<16)}

	magic := br.scratch[:8]
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("%w: truncated magic: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}

	// name
	if err := br.section(secName); err != nil {
		return nil, err
	}
	if br.remain > maxNameLen {
		return nil, fmt.Errorf("%w: name length %d exceeds %d", ErrBadSnapshot, br.remain, maxNameLen)
	}
	nameBuf := make([]byte, br.remain)
	if _, err := io.ReadFull(br.r, nameBuf); err != nil {
		return nil, fmt.Errorf("%w: truncated name: %v", ErrBadSnapshot, err)
	}
	br.crc = crc32.Update(br.crc, crc32.IEEETable, nameBuf)
	br.remain = 0
	name := string(nameBuf)

	// nodes
	if err := br.section(secNodes); err != nil {
		return nil, err
	}
	nu, err := br.u32()
	if err != nil {
		return nil, err
	}
	n := int(nu)
	if br.remain != 16*n {
		return nil, fmt.Errorf("%w: nodes section length %d for %d nodes", ErrBadSnapshot, 4+br.remain, n)
	}
	if n > graph.MaxNodes {
		return nil, fmt.Errorf("topology %q: %w: %d nodes (capacity %d)", name, graph.ErrTooManyNodes, n, graph.MaxNodes)
	}
	// Grow coords by appending rather than allocating the claimed count
	// up front: a corrupt header claiming millions of nodes then costs
	// memory proportional to the bytes actually present, not to the
	// claim. The graph is constructed only after the payload streamed
	// in for the same reason.
	coords := make([]geom.Point, 0, min(n, progressStride))
	progress.report("nodes", 0, n)
	for i := 0; i < n; i++ {
		x, err := br.f64()
		if err != nil {
			return nil, err
		}
		y, err := br.f64()
		if err != nil {
			return nil, err
		}
		coords = append(coords, geom.Point{X: x, Y: y})
		if (i+1)%progressStride == 0 {
			progress.report("nodes", i+1, n)
		}
	}
	progress.report("nodes", n, n)
	g, err := graph.WithNodes(n)
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w", name, err)
	}

	// links
	if err := br.section(secLinks); err != nil {
		return nil, err
	}
	eu, err := br.u32()
	if err != nil {
		return nil, err
	}
	e := int(eu)
	if e > graph.MaxLinks {
		return nil, fmt.Errorf("topology %q: %w: %d links (capacity %d)", name, graph.ErrTooManyLinks, e, graph.MaxLinks)
	}
	// Minimum record size is 9 bytes; a section too short for its count
	// is rejected before any link work happens.
	if br.remain < 9*e {
		return nil, fmt.Errorf("%w: links section length %d for %d links", ErrBadSnapshot, 4+br.remain, e)
	}
	progress.report("links", 0, e)
	for i := 0; i < e; i++ {
		rec, err := br.payload(9)
		if err != nil {
			return nil, err
		}
		a := binary.BigEndian.Uint32(rec[0:4])
		b := binary.BigEndian.Uint32(rec[4:8])
		flag := rec[8]
		costAB, costBA := 1.0, 1.0
		switch flag {
		case 0:
		case 1:
			if costAB, err = br.f64(); err != nil {
				return nil, err
			}
			if costBA, err = br.f64(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: link %d: bad cost flag %d", ErrBadSnapshot, i, flag)
		}
		if int64(a) >= int64(n) || int64(b) >= int64(n) {
			return nil, fmt.Errorf("topology %q: link %d: %w: (%d,%d) with %d nodes", name, i, graph.ErrNodeOutOfRange, a, b, n)
		}
		if _, err := g.AddLinkCost(graph.NodeID(a), graph.NodeID(b), costAB, costBA); err != nil {
			return nil, fmt.Errorf("topology %q: link %d: %w", name, i, err)
		}
		if (i+1)%progressStride == 0 {
			progress.report("links", i+1, e)
		}
	}
	progress.report("links", e, e)
	if br.remain != 0 {
		return nil, fmt.Errorf("%w: links section has %d trailing bytes", ErrBadSnapshot, br.remain)
	}

	// end + checksum
	sum := br.crc
	if err := br.section(secEnd); err != nil {
		return nil, err
	}
	if br.remain != 4 {
		return nil, fmt.Errorf("%w: end section length %d, want 4", ErrBadSnapshot, br.remain)
	}
	want, err := br.u32()
	if err != nil {
		return nil, err
	}
	if want != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrBadSnapshot, want, sum)
	}
	if _, err := br.r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after end section", ErrBadSnapshot)
	}
	t := &Topology{Name: name, G: g, Coords: coords}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
