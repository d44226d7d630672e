package topology

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzRead is the native-fuzzing twin of TestReadRandomText: the
// topology parser must never panic on arbitrary text, and any
// topology it accepts must validate, build its cross index and survive
// a Write/Read round trip. Run with
//
//	go test -fuzz FuzzRead ./internal/topology
func FuzzRead(f *testing.F) {
	f.Add("")
	f.Add("topology t0\nnode 0 1 2\n")
	f.Add("link 0 1\n")
	f.Add("topology t0\nnode 0 NaN 0\nnode 1 1 1\nlink 0 1\n")
	f.Add("topology t0\nnode 0 -1e308 0\nnode 1 1e308 1\nnode 2 0 -1e308\nnode 3 0 1e308\nlink 0 1\nlink 2 3\n")
	var paper strings.Builder
	if err := Write(&paper, PaperExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(paper.String())
	f.Fuzz(func(t *testing.T, input string) {
		topo, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted topology fails validation: %v\ninput:\n%s", err, input)
		}
		BuildCrossIndex(topo)
		var out strings.Builder
		if err := Write(&out, topo); err != nil {
			t.Fatalf("accepted topology fails to serialize: %v", err)
		}
		back, err := Read(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("round trip of accepted topology fails: %v\n%s", err, out.String())
		}
		if back.G.NumNodes() != topo.G.NumNodes() || back.G.NumLinks() != topo.G.NumLinks() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzReadBinary drives the binary snapshot reader with arbitrary
// bytes: it must never panic or over-allocate, and any snapshot it
// accepts must validate, build its cross index and re-encode to the
// identical byte sequence (the format has exactly one encoding per
// world). Truncations and bit flips of valid snapshots are in the seed
// corpus; the trailing CRC must reject them. So is a well-formed
// snapshot with a NaN coordinate, which validation must reject. Run with
//
//	go test -fuzz FuzzReadBinary ./internal/topology
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RTRSNAP1"))
	var snap bytes.Buffer
	if err := WriteBinary(&snap, PaperExample(), nil); err != nil {
		f.Fatal(err)
	}
	valid := snap.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(patchSnapshotCoord(valid, 0, math.NaN()))
	f.Fuzz(func(t *testing.T, input []byte) {
		topo, err := ReadBinary(bytes.NewReader(input), nil)
		if err != nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails validation: %v", err)
		}
		BuildCrossIndex(topo)
		var out bytes.Buffer
		if err := WriteBinary(&out, topo, nil); err != nil {
			t.Fatalf("accepted snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), input) {
			t.Fatalf("re-encode differs from accepted input (%d vs %d bytes)", out.Len(), len(input))
		}
	})
}
