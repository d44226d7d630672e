package invariant

import (
	"repro/internal/graph"
	"repro/internal/mrc"
	"repro/internal/sim"
)

// checkMRC checks MRC's answer to the case for configuration
// validity: the packet switched to the configuration the scheme
// prescribes for the suspected element, the route is valid in that
// configuration (no isolated-node transit, no isolated link — both
// endpoints isolated — anywhere, restricted links only at the very
// ends), honors the exclude contract (never leaves over the trigger
// link), and stays loop-free and truth-consistent. A skipped run (a
// scale-mode world carries no MRC engine) answered nothing.
func (k *Checker) checkMRC(c *sim.Case, res sim.MRCResult) []Violation {
	if res.Skipped {
		return nil
	}
	var vs []Violation
	g := k.W.Topo.G

	// Standard MRC configuration selection: isolate the suspected
	// element — the next-hop node, or the initiator itself when the
	// failed link is the last hop.
	want := k.W.MRC.ConfigOf(c.NextHop)
	if c.NextHop == c.Dst {
		want = k.W.MRC.ConfigOf(c.Initiator)
	}
	if res.Config != want {
		vs = append(vs, k.violation(c, "mrc/config-selection",
			"recovered in configuration %d, the suspected element is isolated in %d", res.Config, want))
	}
	if want == mrc.Unisolated {
		if res.Delivered || res.Walk.Hops() > 0 {
			vs = append(vs, k.violation(c, "mrc/unprotected-forwarded",
				"suspected element is unprotected (articulation point), yet the packet was forwarded"))
		}
		return vs
	}

	traj, _, _ := k.checkTrajectory(c, "mrc", res.Delivered, res.Walk)
	vs = append(vs, traj...)
	recs := res.Walk.Records
	cfg := res.Config
	seen := make(map[graph.NodeID]bool, len(recs)+1)
	seen[c.Initiator] = true
	for i, rec := range recs {
		if i == 0 && rec.Link == c.Trigger {
			vs = append(vs, k.violation(c, "mrc/exclude-violated",
				"first hop reuses the trigger link %d the initiator just saw fail", rec.Link))
		}
		if seen[rec.To] {
			vs = append(vs, k.violation(c, "mrc/walk-loop", "route revisits node %d", rec.To))
		}
		seen[rec.To] = true

		// Configuration validity per link: a link with both endpoints
		// isolated in cfg is an isolated link and carries no traffic in
		// cfg, destination or not; a link with one isolated endpoint is
		// restricted — usable only to reach that endpoint as the packet's
		// destination, or to leave it when it is the isolated initiator
		// on the very first hop.
		l := g.Link(rec.Link)
		aIso := k.W.MRC.ConfigOf(l.A) == cfg
		bIso := k.W.MRC.ConfigOf(l.B) == cfg
		switch {
		case aIso && bIso:
			vs = append(vs, k.violation(c, "mrc/isolated-link",
				"hop %d traverses link %d between two nodes isolated in configuration %d", i, rec.Link, cfg))
		case aIso || bIso:
			iso := l.A
			if bIso {
				iso = l.B
			}
			if !(iso == c.Dst || (i == 0 && iso == c.Initiator)) {
				vs = append(vs, k.violation(c, "mrc/restricted-misuse",
					"hop %d uses restricted link %d of node %d, which is neither the destination nor the isolated initiator leaving home",
					i, rec.Link, iso))
			}
		}
		// No isolated-node transit: interior nodes must be backbone
		// nodes of cfg.
		if rec.To != c.Dst && k.W.MRC.ConfigOf(rec.To) == cfg {
			vs = append(vs, k.violation(c, "mrc/isolated-transit",
				"hop %d transits node %d, isolated in configuration %d", i, rec.To, cfg))
		}
	}

	if res.Delivered {
		return vs
	}
	wantDrop := c.Initiator
	if len(recs) > 0 {
		wantDrop = recs[len(recs)-1].To
	}
	if res.DropAt != wantDrop {
		vs = append(vs, k.violation(c, "mrc/drop-site",
			"drop reported at %d, trajectory stops at %d", res.DropAt, wantDrop))
	}
	return vs
}
