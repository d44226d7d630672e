// Package sweep turns the paper's evaluation — an embarrassingly
// parallel sweep over (topology × experiment × test case) — into a
// sharded, checkpointed, deterministically seeded engine.
//
// A run is decomposed into shards: fixed-size blocks of test cases per
// topology (Tables III/IV, Figs. 7-10/12-13) and fixed-size blocks of
// failure areas per (topology, radius) pair (Fig. 11). Every shard
// derives its RNG from a stable hash of (baseSeed, shardKey) via
// internal/seed, so a shard's results depend only on its identity —
// not on which worker ran it, in what order, or in which process.
// Aggregates are assembled by concatenating shard results in plan
// order, which makes them bit-identical for any worker count and
// across interrupt/resume boundaries; internal/sweep's tests and the
// CLI-level tests of cmd/rtrsim assert exactly that.
//
// Shards stream to a JSONL results file as they complete, alongside a
// manifest that fingerprints the workload; a resumed run loads the
// results file, skips every shard with a cleanly recorded line
// (a torn tail line from a kill simply reruns that shard), and merges
// recorded and fresh results identically.
package sweep

import (
	"fmt"
	"strconv"

	"repro/internal/seed"
)

// Kind labels what a shard computes.
type Kind string

const (
	// KindCases is one block of recoverable+irrecoverable test cases
	// on one topology, run through all three protocols.
	KindCases Kind = "cases"
	// KindFig11 is one block of random failure areas at one radius on
	// one topology, counting failed and irrecoverable routing paths.
	KindFig11 Kind = "fig11"
	// KindUtil is one (topology, scheme) congestion measurement: a
	// gravity-model traffic matrix replayed under failure draws with
	// per-link utilization accounting before/after recovery.
	KindUtil Kind = "util"
)

// Default congestion-shard sizing.
const (
	DefaultUtilPairs     = 2000
	DefaultUtilScenarios = 5
)

// Default shard granularities. Blocks must be big enough to amortize
// per-shard setup and small enough that a checkpoint loses little
// work: at paper scale (10,000+10,000 cases) the defaults give 20
// case shards per topology.
const (
	DefaultBlockCases = 500
	DefaultBlockAreas = 50
)

// Spec describes a sweep workload. It is the unit of checkpoint
// compatibility: its canonical JSON is fingerprinted into the
// manifest, and a resume against a different Spec is refused.
type Spec struct {
	// BaseSeed feeds both topology synthesis (used directly, as
	// elsewhere in the repo) and every shard RNG (via seed.Derive).
	BaseSeed int64 `json:"base_seed"`
	// Topologies lists Table II topology names, in output order.
	Topologies []string `json:"topologies"`
	// Recoverable and Irrecoverable are per-topology case targets.
	Recoverable   int `json:"recoverable"`
	Irrecoverable int `json:"irrecoverable"`
	// BlockCases caps the recoverable and irrecoverable cases per
	// shard (DefaultBlockCases when 0).
	BlockCases int `json:"block_cases,omitempty"`

	// Fig11Radii enables Fig. 11 shards when non-empty.
	Fig11Radii []float64 `json:"fig11_radii,omitempty"`
	// Fig11Areas is the number of failure areas per radius.
	Fig11Areas int `json:"fig11_areas,omitempty"`
	// BlockAreas caps the areas per Fig. 11 shard (DefaultBlockAreas
	// when 0).
	BlockAreas int `json:"block_areas,omitempty"`

	// DstSample, when > 0, makes case shards examine only DstSample
	// destinations per scenario (sim.CollectBothSampledG), bounding
	// shard cost and materialized reverse trees on 10^5-node graphs.
	// The sample is drawn from the shard RNG, so results stay
	// a pure function of shard identity — bit-identical merges for any
	// worker count — but they differ from the full enumeration, so the
	// knob is part of the checkpoint fingerprint (omitempty: absent
	// means full enumeration and existing fingerprints are unchanged).
	DstSample int `json:"dst_sample,omitempty"`

	// Failure is the failure-generator spec (failure.ParseSpec
	// grammar) every shard draws scenarios from; empty means the
	// paper's single-disk model, which keeps the fingerprint — and
	// therefore every existing checkpoint — unchanged. A different
	// generator produces different scenarios, so the spec is part of
	// the checkpoint fingerprint (omitempty: only when set). The spec
	// is validated fail-fast in Engine.Run before any shard runs.
	// Fig. 11 shards additionally require the generator to support
	// radius pinning (failure.FixedRadius).
	Failure string `json:"failure,omitempty"`

	// UtilSchemes enables congestion shards when non-empty: one shard
	// per (topology, scheme name), each synthesizing a gravity-model
	// traffic matrix of UtilPairs demands, calibrating capacity to the
	// heavy-load operating point, and replaying the matrix under
	// UtilScenarios failure draws with the named recovery scheme.
	// Scheme names resolve against the recovery-scheme registry
	// (internal/scheme), fail-fast in Engine.Run. All three knobs
	// change results, so they are fingerprinted (omitempty: absent
	// keeps every existing checkpoint fingerprint unchanged).
	UtilSchemes   []string `json:"util_schemes,omitempty"`
	UtilPairs     int      `json:"util_pairs,omitempty"`
	UtilScenarios int      `json:"util_scenarios,omitempty"`

	// Check runs the invariant oracle (internal/invariant) over every
	// case a shard generates and fails the whole sweep on the first
	// violation, carrying a minimized repro string. Only case shards
	// are checked: Fig. 11 shards count failed paths and produce no
	// per-case protocol outputs to validate. Check changes no results
	// and is deliberately excluded from the checkpoint fingerprint —
	// a checked resume of an unchecked run (and vice versa) is valid.
	Check bool `json:"-"`
}

func (s Spec) blockCases() int {
	if s.BlockCases > 0 {
		return s.BlockCases
	}
	return DefaultBlockCases
}

func (s Spec) blockAreas() int {
	if s.BlockAreas > 0 {
		return s.BlockAreas
	}
	return DefaultBlockAreas
}

func (s Spec) utilPairs() int {
	if s.UtilPairs > 0 {
		return s.UtilPairs
	}
	return DefaultUtilPairs
}

func (s Spec) utilScenarios() int {
	if s.UtilScenarios > 0 {
		return s.UtilScenarios
	}
	return DefaultUtilScenarios
}

// Shard is one deterministic unit of work. Its Key is stable across
// runs and is what the checkpoint records.
type Shard struct {
	Key      string `json:"key"`
	Kind     Kind   `json:"kind"`
	Topology string `json:"topology"`
	Block    int    `json:"block"`
	// Rec and Irr are this shard's case targets (KindCases).
	Rec int `json:"rec,omitempty"`
	Irr int `json:"irr,omitempty"`
	// Radius and Areas size a Fig. 11 shard (KindFig11).
	Radius float64 `json:"radius,omitempty"`
	Areas  int     `json:"areas,omitempty"`
	// Scheme names the recovery scheme a congestion shard replays
	// (KindUtil).
	Scheme string `json:"scheme,omitempty"`
}

// Seed derives the shard's RNG seed from the sweep's base seed. Two
// shards never share a stream, and the derivation does not depend on
// the spec's shard sizing — but resizing blocks changes how many
// cases each stream contributes, so block sizes are still part of the
// checkpoint fingerprint.
func (sh Shard) Seed(base int64) int64 {
	switch sh.Kind {
	case KindFig11:
		return seed.Derive(base, string(sh.Kind), sh.Topology,
			strconv.FormatFloat(sh.Radius, 'g', -1, 64), strconv.Itoa(sh.Block))
	case KindUtil:
		return seed.Derive(base, string(sh.Kind), sh.Topology, sh.Scheme, strconv.Itoa(sh.Block))
	default:
		return seed.Derive(base, string(sh.Kind), sh.Topology, strconv.Itoa(sh.Block))
	}
}

// Shards enumerates the sweep's shards in plan order: all case shards
// in topology order, then all Fig. 11 shards in (topology, radius)
// order. Plan order is the merge order, and therefore the order that
// defines the aggregate output.
func (s Spec) Shards() []Shard {
	var out []Shard
	bc := s.blockCases()
	for _, as := range s.Topologies {
		rec, irr := s.Recoverable, s.Irrecoverable
		for b := 0; rec > 0 || irr > 0; b++ {
			sh := Shard{
				Key:      fmt.Sprintf("cases/%s/%04d", as, b),
				Kind:     KindCases,
				Topology: as,
				Block:    b,
				Rec:      min(bc, rec),
				Irr:      min(bc, irr),
			}
			rec -= sh.Rec
			irr -= sh.Irr
			out = append(out, sh)
		}
	}
	if len(s.Fig11Radii) > 0 && s.Fig11Areas > 0 {
		ba := s.blockAreas()
		for _, as := range s.Topologies {
			for _, r := range s.Fig11Radii {
				areas := s.Fig11Areas
				for b := 0; areas > 0; b++ {
					n := min(ba, areas)
					areas -= n
					out = append(out, Shard{
						Key: fmt.Sprintf("fig11/%s/r%s/%04d", as,
							strconv.FormatFloat(r, 'g', -1, 64), b),
						Kind:     KindFig11,
						Topology: as,
						Block:    b,
						Radius:   r,
						Areas:    n,
					})
				}
			}
		}
	}
	for _, as := range s.Topologies {
		for _, sm := range s.UtilSchemes {
			out = append(out, Shard{
				Key:      fmt.Sprintf("util/%s/%s", as, sm),
				Kind:     KindUtil,
				Topology: as,
				Scheme:   sm,
			})
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
