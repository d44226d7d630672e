package topology

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// encodeBinary is a test helper: WriteBinary into a fresh buffer.
func encodeBinary(t *testing.T, topo *Topology) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, topo, nil); err != nil {
		t.Fatalf("WriteBinary(%s): %v", topo.Name, err)
	}
	return buf.Bytes()
}

// sameTopology fails the test unless a and b are structurally
// identical: same name, coords, and link table bytes.
func sameTopology(t *testing.T, a, b *Topology) {
	t.Helper()
	if a.Name != b.Name {
		t.Fatalf("name %q != %q", a.Name, b.Name)
	}
	if len(a.Coords) != len(b.Coords) {
		t.Fatalf("%d coords != %d coords", len(a.Coords), len(b.Coords))
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatalf("coord %d: %v != %v", i, a.Coords[i], b.Coords[i])
		}
	}
	al, bl := a.G.Links(), b.G.Links()
	if len(al) != len(bl) {
		t.Fatalf("%d links != %d links", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("link %d: %+v != %+v", i, al[i], bl[i])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, topo := range []*Topology{
		PaperExample(),
		GenerateAS("AS1239", 7),
		{Name: "empty", G: graph.New(0)},
	} {
		enc := encodeBinary(t, topo)
		back, err := ReadBinary(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("ReadBinary(%s): %v", topo.Name, err)
		}
		sameTopology(t, topo, back)
		// The binary codec must agree with the text codec (the
		// differential oracle) on the same world.
		var text strings.Builder
		if err := Write(&text, topo); err != nil {
			t.Fatalf("Write(%s): %v", topo.Name, err)
		}
		viaText, err := Read(strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("Read(%s): %v", topo.Name, err)
		}
		if topo.G.NumNodes() > 0 {
			sameTopology(t, viaText, back)
		}
	}
}

func TestBinaryAsymmetricCosts(t *testing.T) {
	g := graph.New(3)
	g.MustAddLink(0, 1)
	if _, err := g.AddLinkCost(1, 2, 2.5, 0.125); err != nil {
		t.Fatal(err)
	}
	topo := &Topology{Name: "costs", G: g, Coords: []geom.Point{{X: 1, Y: 2}, {X: 3.5, Y: 4}, {X: 5, Y: 6.25}}}
	back, err := ReadBinary(bytes.NewReader(encodeBinary(t, topo)), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTopology(t, topo, back)
}

func TestBinaryTruncation(t *testing.T) {
	enc := encodeBinary(t, GenerateAS("AS1239", 3))
	for n := 0; n < len(enc); n++ {
		if _, err := ReadBinary(bytes.NewReader(enc[:n]), nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(enc))
		}
	}
}

func TestBinaryCorruption(t *testing.T) {
	topo := GenerateAS("AS1239", 3)
	enc := encodeBinary(t, topo)
	rng := rand.New(rand.NewSource(11))
	flips := 0
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(len(enc))
		bad := append([]byte(nil), enc...)
		bad[i] ^= 1 << rng.Intn(8)
		back, err := ReadBinary(bytes.NewReader(bad), nil)
		if err != nil {
			continue
		}
		// A flip the reader accepts anyway must decode to the exact
		// same topology (e.g. a NaN payload bit that the checksum
		// happens to collide on is essentially impossible; reaching
		// here at all indicates checksum coverage is broken).
		sameTopology(t, topo, back)
		flips++
	}
	if flips != 0 {
		t.Fatalf("%d corrupted encodings accepted", flips)
	}
}

func TestBinaryTrailingData(t *testing.T) {
	enc := encodeBinary(t, PaperExample())
	if _, err := ReadBinary(bytes.NewReader(append(enc, 0)), nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

func TestBinaryProgress(t *testing.T) {
	topo := GenerateAS("AS7018", 7)
	var stages []string
	var lastDone int
	progress := func(stage string, done, total int) {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
			lastDone = 0
		}
		if done < lastDone || done > total {
			t.Fatalf("progress %s %d/%d after %d", stage, done, total, lastDone)
		}
		lastDone = done
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, topo, progress); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()), progress); err != nil {
		t.Fatal(err)
	}
	want := []string{"nodes", "links", "nodes", "links"}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
}

// patchSnapshotCoord returns a copy of enc with node v's x coordinate
// replaced by x and the trailing checksum recomputed, so only the value
// is wrong: WriteBinary refuses to encode a non-finite coordinate.
func patchSnapshotCoord(enc []byte, v int, x float64) []byte {
	out := append([]byte(nil), enc...)
	var crc uint32
	for pos := len(snapMagic); ; {
		tag, n := out[pos], int(binary.BigEndian.Uint32(out[pos+1:pos+5]))
		payload := out[pos+5 : pos+5+n]
		switch tag {
		case secEnd:
			binary.BigEndian.PutUint32(payload, crc)
			return out
		case secNodes:
			binary.BigEndian.PutUint64(payload[4+16*v:], math.Float64bits(x))
		}
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		pos += 5 + n
	}
}

func TestBinaryRejectsNonFiniteCoords(t *testing.T) {
	enc := encodeBinary(t, PaperExample())
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ReadBinary(bytes.NewReader(patchSnapshotCoord(enc, 3, x)), nil); err == nil {
			t.Errorf("snapshot with a node at x = %v accepted", x)
		}
	}
	// The same patch with a finite value reads, so the rejections
	// above come from the value, not from a broken checksum.
	if _, err := ReadBinary(bytes.NewReader(patchSnapshotCoord(enc, 3, 1e308)), nil); err != nil {
		t.Errorf("snapshot with a node at x = 1e308 rejected: %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOTSNAP1xxxx")), nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}
