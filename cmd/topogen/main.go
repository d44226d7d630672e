// Command topogen synthesizes and inspects the repository's network
// topologies: the paper's Table II analogues and hierarchical PoP
// graphs up to city/continent scale.
//
// Usage:
//
//	topogen -as AS209 -seed 1 -o as209.topo       # Table II preset
//	topogen -nodes 100000 -links 300000 -tiers \
//	        -seed 1 -binary -o big.snap            # 100k-node synthesis
//	topogen -as AS209 -stats                       # print structure stats
//	topogen -in big.snap -stats                    # inspect a saved file
//	topogen -list                                  # list Table II presets
//
// A Table II preset (-as) draws from the stream sim.NewWorld uses,
// rand.NewSource(seed), so the file holds the graph rtrsim, rtrsimd and
// the benchmark simulate for that (name, seed). A -nodes synthesis
// derives its stream through internal/seed.Derive keyed by the
// topology name, as rtrscale does.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/seed"
	"repro/internal/topology"
)

func main() {
	var (
		asName   = flag.String("as", "", "Table II topology to synthesize (e.g. AS209)")
		nodes    = flag.Int("nodes", 0, "synthesize a custom topology with this many nodes")
		links    = flag.Int("links", 0, "link count for -nodes (default 3x nodes)")
		tiers    = flag.Bool("tiers", false, "use the hierarchical core/aggregation/access generator")
		name     = flag.String("name", "", "name for a -nodes synthesis (default synth<nodes>)")
		seedFlag = flag.Int64("seed", 1, "synthesis seed")
		out      = flag.String("o", "", "write the topology to this file ('-' for stdout)")
		binOut   = flag.Bool("binary", false, "write the binary snapshot format instead of text")
		in       = flag.String("in", "", "read a topology file (text or binary, sniffed) instead of synthesizing")
		stat     = flag.Bool("stats", false, "print structural statistics")
		list     = flag.Bool("list", false, "list available presets")
		fixture  = flag.Bool("paper-example", false, "use the paper's Fig. 6 worked-example fixture")
		progress = flag.Bool("progress", false, "report codec progress on stderr")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %8s %8s\n", "Name", "#Nodes", "#Links")
		for _, p := range topology.TableII() {
			fmt.Printf("%-10s %8d %8d\n", p.Name, p.Nodes, p.Links)
		}
		return
	}

	var report topology.Progress
	if *progress {
		report = func(stage string, done, total int) {
			fmt.Fprintf(os.Stderr, "topogen: %s %d/%d\n", stage, done, total)
		}
	}

	topo, err := load(*asName, *in, *nodes, *links, *tiers, *name, *seedFlag, *fixture, report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}

	if *stat {
		printStats(topo)
	}
	if *out != "" {
		if err := save(*out, topo, *binOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
			os.Exit(1)
		}
	}
	if !*stat && *out == "" {
		fmt.Fprintln(os.Stderr, "topogen: nothing to do (pass -stats and/or -o)")
		os.Exit(2)
	}
}

func load(asName, in string, nodes, links int, tiers bool, name string, seedBase int64, fixture bool, report topology.Progress) (*topology.Topology, error) {
	switch {
	case fixture:
		return topology.PaperExample(), nil
	case in != "":
		return readFile(in, report)
	case nodes > 0:
		if links == 0 {
			links = 3 * nodes
		}
		if name == "" {
			name = fmt.Sprintf("synth%d", nodes)
		}
		p := topology.GenParams{Name: name, Nodes: nodes, Links: links, Tiers: tiers}
		return topology.Generate(p, newRand(seedBase, name))
	case asName != "":
		p, ok := topology.ParamsFor(asName)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q (try -list)", asName)
		}
		return topology.Generate(p, rand.New(rand.NewSource(seedBase)))
	default:
		return nil, fmt.Errorf("pass one of -as, -nodes, -in, or -paper-example")
	}
}

// readFile loads a topology file in either codec, sniffing the binary
// magic so callers never have to say which format they saved.
func readFile(path string, report topology.Progress) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(topology.SnapMagic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if bytes.Equal(head, []byte(topology.SnapMagic)) {
		return topology.ReadBinary(br, report)
	}
	return topology.Read(br)
}

func save(path string, topo *topology.Topology, binary bool, report topology.Progress) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if binary {
		return topology.WriteBinary(w, topo, report)
	}
	return topology.Write(w, topo)
}

// statCrossLimit keeps -stats responsive on huge graphs: the crossing
// census visits every crossing pair, which is worth waiting for on
// Table II maps but not on 3x10^5-link syntheses.
const statCrossLimit = 50000

func printStats(t *topology.Topology) {
	g := t.G
	n := g.NumNodes()
	degrees := make([]int, n)
	maxDeg, leaves := 0, 0
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		degrees[v] = d
		if d > maxDeg {
			maxDeg = d
		}
		if d == 1 {
			leaves++
		}
	}
	sort.Ints(degrees)
	totalLen := 0.0
	for i := 0; i < g.NumLinks(); i++ {
		totalLen += t.LinkSegment(graph.LinkID(i)).Length()
	}

	fmt.Printf("topology     %s\n", t.Name)
	fmt.Printf("nodes        %d\n", n)
	fmt.Printf("links        %d\n", g.NumLinks())
	fmt.Printf("connected    %v\n", g.ConnectedAll(graph.Nothing))
	if n > 0 {
		fmt.Printf("degree       min %d / median %d / max %d, %d leaves\n",
			degrees[0], degrees[n/2], maxDeg, leaves)
	}
	if g.NumLinks() > 0 {
		fmt.Printf("avg link len %.1f\n", totalLen/float64(g.NumLinks()))
	}
	if g.NumLinks() <= statCrossLimit {
		ci := topology.BuildCrossIndex(t)
		fmt.Printf("crossings    %d\n", ci.NumCrossings())
	} else {
		fmt.Printf("crossings    (skipped: %d links > %d)\n", g.NumLinks(), statCrossLimit)
	}
	fmt.Printf("cut vertices %d\n", len(g.ArticulationPoints(graph.Nothing)))
}

// newRand derives a -nodes synthesis stream from (base seed, topology
// name), the stream rtrscale draws for the same pair.
func newRand(base int64, name string) *rand.Rand {
	return rand.New(rand.NewSource(seed.Derive(base, "topogen", name)))
}
