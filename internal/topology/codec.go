package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/graph"
)

// The text format is line oriented:
//
//	topology <name>
//	node <id> <x> <y>
//	link <a> <b> [costAB costBA]
//
// Nodes must be declared with consecutive IDs starting at 0 before any
// link that uses them. '#' starts a comment; blank lines are ignored.

// Write serializes t in the text format.
func Write(w io.Writer, t *Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "topology %s\n", t.Name)
	for i, c := range t.Coords {
		fmt.Fprintf(bw, "node %d %s %s\n", i,
			strconv.FormatFloat(c.X, 'g', -1, 64),
			strconv.FormatFloat(c.Y, 'g', -1, 64))
	}
	for _, l := range t.G.Links() {
		if l.CostAB == 1 && l.CostBA == 1 {
			fmt.Fprintf(bw, "link %d %d\n", l.A, l.B)
			continue
		}
		fmt.Fprintf(bw, "link %d %d %s %s\n", l.A, l.B,
			strconv.FormatFloat(l.CostAB, 'g', -1, 64),
			strconv.FormatFloat(l.CostBA, 'g', -1, 64))
	}
	return bw.Flush()
}

// Read parses a topology in the text format and validates it.
func Read(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	name := ""
	var coords []geom.Point
	type rawLink struct {
		a, b           int
		costAB, costBA float64
	}
	var links []rawLink

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topology":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: want 'topology <name>'", lineNo)
			}
			name = fields[1]
		case "node":
			if len(fields) != 4 {
				return nil, fmt.Errorf("topology: line %d: want 'node <id> <x> <y>'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != len(coords) {
				return nil, fmt.Errorf("topology: line %d: node IDs must be consecutive from 0, got %q", lineNo, fields[1])
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad x %q: %v", lineNo, fields[2], err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad y %q: %v", lineNo, fields[3], err)
			}
			coords = append(coords, geom.Point{X: x, Y: y})
		case "link":
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("topology: line %d: want 'link <a> <b> [costAB costBA]'", lineNo)
			}
			a, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad endpoint %q: %v", lineNo, fields[1], err)
			}
			b, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: bad endpoint %q: %v", lineNo, fields[2], err)
			}
			l := rawLink{a: a, b: b, costAB: 1, costBA: 1}
			if len(fields) == 5 {
				l.costAB, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad cost %q: %v", lineNo, fields[3], err)
				}
				l.costBA, err = strconv.ParseFloat(fields[4], 64)
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad cost %q: %v", lineNo, fields[4], err)
				}
			}
			links = append(links, l)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: read: %w", err)
	}
	if name == "" {
		return nil, fmt.Errorf("topology: missing 'topology <name>' header")
	}

	g, err := graph.WithNodes(len(coords))
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w", name, err)
	}
	for _, l := range links {
		if l.a < 0 || l.a >= len(coords) || l.b < 0 || l.b >= len(coords) {
			return nil, fmt.Errorf("topology %q: link %d-%d references undeclared node", name, l.a, l.b)
		}
		if _, err := g.AddLinkCost(graph.NodeID(l.a), graph.NodeID(l.b), l.costAB, l.costBA); err != nil {
			return nil, fmt.Errorf("topology %q: link %d-%d: %w", name, l.a, l.b, err)
		}
	}
	t := &Topology{Name: name, G: g, Coords: coords}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
