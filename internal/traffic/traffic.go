// Package traffic grades recovery schemes on the production metric
// the paper leaves out: post-recovery link load. It synthesizes a
// gravity-model traffic matrix from the topology's geometric
// coordinates, routes it over the converged tables to calibrate a
// uniform link capacity at heavy offered load, and then replays the
// matrix under a failure — packets follow pre-failure forwarding until
// they reach a recovery initiator, whose scheme-specific recovery
// trajectory carries the flow the rest of the way. The per-link loads
// before and after recovery summarize to peak/percentile utilization,
// and the offered = delivered + dropped conservation mirrors the loss
// model's accounting (the invariant oracle checks it).
package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/converged"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// HeavyLoadTarget is the clean-topology peak utilization the capacity
// calibration aims at: the heavy-offered-load operating point the
// congestion experiments run under.
const HeavyLoadTarget = 0.9

// Demand is one (src, dst) flow at a steady offered rate.
type Demand struct {
	Src, Dst graph.NodeID
	Rate     float64
}

// Matrix is a sampled traffic matrix.
type Matrix struct {
	Demands []Demand
	// Total is the summed offered rate.
	Total float64
}

// Gravity samples a gravity-model traffic matrix from the topology's
// geometry: pair (s, d) is offered rate proportional to
// deg(s)·deg(d) / (d0 + dist(s, d))², where dist is the Euclidean
// distance between the nodes' coordinates and d0 — the mean link
// length — keeps nearby pairs from diverging. Degree is the standard
// gravity mass proxy for a router's attraction (well-connected hubs
// source and sink more traffic); the quadratic distance deterrence is
// the classical form. pairs distinct (s, d) pairs are drawn from rng,
// so the matrix is a pure function of (topology, seed, pairs).
func Gravity(topo *topology.Topology, pairs int, rng *rand.Rand) *Matrix {
	g := topo.G
	n := g.NumNodes()
	d0 := meanLinkLength(topo)
	m := &Matrix{Demands: make([]Demand, 0, pairs)}
	seen := make(map[[2]graph.NodeID]bool, pairs)
	for len(m.Demands) < pairs {
		s := graph.NodeID(rng.Intn(n))
		d := graph.NodeID(rng.Intn(n))
		if s == d || seen[[2]graph.NodeID{s, d}] {
			continue
		}
		seen[[2]graph.NodeID{s, d}] = true
		dist := topo.Coord(s).Dist(topo.Coord(d))
		den := (d0 + dist) * (d0 + dist)
		rate := float64(g.Degree(s)) * float64(g.Degree(d)) / den
		m.Demands = append(m.Demands, Demand{Src: s, Dst: d, Rate: rate})
		m.Total += rate
	}
	return m
}

func meanLinkLength(topo *topology.Topology) float64 {
	g := topo.G
	if g.NumLinks() == 0 {
		return 1
	}
	sum := 0.0
	for id := 0; id < g.NumLinks(); id++ {
		sum += topo.LinkSegment(graph.LinkID(id)).Length()
	}
	return sum / float64(g.NumLinks())
}

// Baseline routes every demand over the clean converged tables and
// returns the per-link load vector (indexed by LinkID). This is the
// pre-failure state the capacity calibration and the "before" column
// read.
func Baseline(w *sim.World, m *Matrix) []float64 {
	load := make([]float64, w.Topo.G.NumLinks())
	n := w.Topo.G.NumNodes()
	for _, d := range m.Demands {
		v := d.Src
		for hops := 0; v != d.Dst && hops < n; hops++ {
			nh, link, ok := w.Tables.NextHop(v, d.Dst)
			if !ok {
				break
			}
			load[link] += d.Rate
			v = nh
		}
	}
	return load
}

// CalibrateCapacity returns the uniform link capacity that puts the
// clean-topology peak utilization at target — the "heavy offered
// load" operating point (0.9 in the experiments). Zero peak load
// yields capacity 1 so utilization stays defined.
func CalibrateCapacity(load []float64, target float64) float64 {
	peak := 0.0
	for _, l := range load {
		if l > peak {
			peak = l
		}
	}
	if peak == 0 || target <= 0 {
		return 1
	}
	return peak / target
}

// Runner executes one recovery case for the scheme under test and
// reports delivery plus the data-plane walks to charge. It adapts
// scheme.Run without making this package depend on the registry.
type Runner func(c *sim.Case) (delivered bool, walks []routing.Walk, err error)

// Flow accounting totals. Conservation (Offered = Delivered + Dropped)
// is an invariant the oracle checks.
type Flows struct {
	Offered   float64 `json:"offered"`
	Delivered float64 `json:"delivered"`
	Dropped   float64 `json:"dropped"`
}

// RunUnder replays the matrix under the failure st converged on: each
// demand's packets follow pre-failure forwarding until a node's next
// hop is unreachable; that node becomes the recovery initiator and the
// scheme's recovery trajectory (run) carries the flow onward. Every
// case comes from st, so flows blocked at the same (initiator, trigger)
// share one phase-1 walk and flows graded at the same initiator share
// one truth tree. The returned load vector covers pre-failure hops up
// to the initiator plus every hop of the scheme's data-plane walks.
// Demands sourced inside the failure are not offered (the source is
// dead); demands that reach no initiator and no destination (converged
// next hop missing) are dropped where they stall.
func RunUnder(w *sim.World, st *converged.State, m *Matrix, run Runner) ([]float64, Flows, error) {
	sc, lv := st.Scenario(), st.LocalView()
	load := make([]float64, w.Topo.G.NumLinks())
	var fl Flows
	n := w.Topo.G.NumNodes()
	for _, d := range m.Demands {
		if sc.NodeDown(d.Src) {
			continue
		}
		fl.Offered += d.Rate
		v := d.Src
		delivered := false
		for hops := 0; hops < n; hops++ {
			if v == d.Dst {
				delivered = true
				break
			}
			nh, link, ok := w.Tables.NextHop(v, d.Dst)
			if !ok {
				break
			}
			if !lv.NeighborUnreachable(v, link) {
				load[link] += d.Rate
				v = nh
				continue
			}
			c, err := sim.CaseAt(st, v, d.Dst)
			var walks []routing.Walk
			if err == nil {
				delivered, walks, err = run(c)
			}
			if err != nil {
				return nil, Flows{}, fmt.Errorf("traffic: recovery at %d for %d->%d: %w", v, d.Src, d.Dst, err)
			}
			for _, wk := range walks {
				for _, rec := range wk.Records {
					load[rec.Link] += d.Rate
				}
			}
			break
		}
		if delivered {
			fl.Delivered += d.Rate
		} else {
			fl.Dropped += d.Rate
		}
	}
	return load, fl, nil
}

// Util summarizes a load vector against a uniform capacity.
type Util struct {
	// Peak is the maximum link utilization; P99 and P50 are load
	// percentiles across links; Mean averages over all links.
	Peak float64 `json:"peak"`
	P99  float64 `json:"p99"`
	P50  float64 `json:"p50"`
	Mean float64 `json:"mean"`
}

// Summarize reduces a per-link load vector to utilization statistics
// under a uniform capacity. Links inside the failure (sc non-nil and
// the link failed) carry no traffic by construction and are excluded
// so a dead link's zero doesn't dilute the percentiles.
func Summarize(load []float64, capacity float64, sc *failure.Scenario, g *graph.Graph) Util {
	if capacity <= 0 {
		capacity = 1
	}
	utils := make([]float64, 0, len(load))
	for id, l := range load {
		if sc != nil && !graph.Usable(g.Link(graph.LinkID(id)), sc) {
			continue
		}
		utils = append(utils, l/capacity)
	}
	var u Util
	if len(utils) == 0 {
		return u
	}
	sort.Float64s(utils)
	sum := 0.0
	for _, x := range utils {
		sum += x
	}
	u.Peak = utils[len(utils)-1]
	u.P99 = utils[(len(utils)-1)*99/100]
	u.P50 = utils[(len(utils)-1)/2]
	u.Mean = sum / float64(len(utils))
	return u
}

// Result is one (topology, scheme) utilization measurement: the
// before/after utilization columns plus the conservation totals,
// aggregated over however many scenarios the caller replayed (Pre is
// scenario-independent; Post aggregates by max so the peak column
// reports the worst case observed).
type Result struct {
	Topology string `json:"topology"`
	Scheme   string `json:"scheme"`
	// Pairs is the matrix size; Scenarios the failure draws replayed.
	Pairs     int `json:"pairs"`
	Scenarios int `json:"scenarios"`
	// Capacity is the calibrated uniform link capacity.
	Capacity float64 `json:"capacity"`
	Pre      Util    `json:"pre"`
	Post     Util    `json:"post"`
	Flows    Flows   `json:"flows"`
}

// Merge folds one scenario's post-recovery measurement into the
// aggregate: utilization columns take the elementwise max (worst case
// across scenarios), flow totals accumulate.
func (r *Result) Merge(post Util, fl Flows) {
	r.Scenarios++
	if post.Peak > r.Post.Peak {
		r.Post.Peak = post.Peak
	}
	if post.P99 > r.Post.P99 {
		r.Post.P99 = post.P99
	}
	if post.P50 > r.Post.P50 {
		r.Post.P50 = post.P50
	}
	if post.Mean > r.Post.Mean {
		r.Post.Mean = post.Mean
	}
	r.Flows.Offered += fl.Offered
	r.Flows.Delivered += fl.Delivered
	r.Flows.Dropped += fl.Dropped
}
