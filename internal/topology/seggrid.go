package topology

import (
	"math"

	"repro/internal/geom"
)

// segGrid indexes segments by the grid cells their bounding boxes
// cover, turning all-pairs crossing detection into per-cell candidate
// enumeration. Pairs whose cell ranges overlap in several cells are
// deduplicated geometrically: a pair is reported only from the
// top-left cell of the overlap of the two ranges, so no visited-set
// is needed and every pair is reported exactly once.
//
// The cell table is one flat array: cell k holds
// segs[start[k]:start[k+1]], in ascending segment order.
type segGrid struct {
	start  []int
	segs   []int32
	rngs   []cellRange
	nx, ny int
}

// cellRange is the inclusive cell-coordinate span of one segment's
// bounding box.
type cellRange struct {
	x0, x1, y0, y1 int32
}

// maxGridCells bounds the cell count per axis, so the table stays at
// most 256x256 cells however short the links are.
const maxGridCells = 256

// gridAxis maps a coordinate to its cell index along one axis.
type gridAxis struct {
	lo, span float64
	n        int32
}

// newGridAxis sizes one axis so a cell is about one mean link extent
// wide: a typical link then covers about two cells per axis, and the
// per-cell pair count tracks the links near each other instead of the
// grid's resolution. Long-link maps get a coarse grid, short-link maps
// a fine one, clamped to [1, maxGridCells]. A span that overflows to
// +Inf (finite coordinates near ±MaxFloat64) gets one cell, so no cell
// arithmetic overflows.
func newGridAxis(lo, hi, meanExtent float64) gridAxis {
	span := hi - lo
	n := span / meanExtent
	if math.IsInf(span, 1) || !(n >= 1) { // also catches 0/0
		return gridAxis{n: 1}
	}
	return gridAxis{lo: lo, span: span, n: int32(math.Min(n, maxGridCells))}
}

func (a gridAxis) cell(v float64) int32 {
	if a.n == 1 {
		return 0
	}
	// (v-lo)/span is in [0, 1] for a finite positive span, so the cell
	// index cannot overflow whatever the magnitudes.
	return min(int32((v-a.lo)/a.span*float64(a.n)), a.n-1)
}

// newSegGrid buckets segs; with no segments the sizing falls to one
// empty cell.
func newSegGrid(segs []geom.Segment) *segGrid {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	var sumW, sumH float64
	for _, s := range segs {
		x0, x1 := math.Min(s.A.X, s.B.X), math.Max(s.A.X, s.B.X)
		y0, y1 := math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
		minX, maxX = math.Min(minX, x0), math.Max(maxX, x1)
		minY, maxY = math.Min(minY, y0), math.Max(maxY, y1)
		sumW += x1 - x0
		sumH += y1 - y0
	}
	e := float64(len(segs))
	ax := newGridAxis(minX, maxX, sumW/e)
	ay := newGridAxis(minY, maxY, sumH/e)
	nx, ny := int(ax.n), int(ay.n)
	cells := nx * ny
	g := &segGrid{
		start: make([]int, cells+1),
		rngs:  make([]cellRange, len(segs)),
		nx:    nx, ny: ny,
	}
	// Count per cell, prefix-sum to cell ends, then fill backwards so
	// each start[k] steps down to its cell's first slot and every cell
	// lists its segments in ascending order.
	for i, s := range segs {
		r := cellRange{
			x0: ax.cell(math.Min(s.A.X, s.B.X)),
			x1: ax.cell(math.Max(s.A.X, s.B.X)),
			y0: ay.cell(math.Min(s.A.Y, s.B.Y)),
			y1: ay.cell(math.Max(s.A.Y, s.B.Y)),
		}
		g.rngs[i] = r
		for cy := r.y0; cy <= r.y1; cy++ {
			for cx := r.x0; cx <= r.x1; cx++ {
				g.start[int(cy)*nx+int(cx)]++
			}
		}
	}
	for k := 1; k <= cells; k++ {
		g.start[k] += g.start[k-1]
	}
	g.segs = make([]int32, g.start[cells])
	for i := len(segs) - 1; i >= 0; i-- {
		r := g.rngs[i]
		for cy := r.y0; cy <= r.y1; cy++ {
			for cx := r.x0; cx <= r.x1; cx++ {
				k := int(cy)*nx + int(cx)
				g.start[k]--
				g.segs[g.start[k]] = int32(i)
			}
		}
	}
	return g
}

// numCells is the number of grid cells, the index space of
// forCandidatePairsIn.
func (g *segGrid) numCells() int { return g.nx * g.ny }

// forCandidatePairsIn calls report(i, j) with i < j exactly once for
// every segment pair whose cell ranges overlap in a cell of [lo, hi) —
// the unit of parallel distribution. Crossing segments have
// overlapping bounding boxes, and overlapping boxes always share at
// least one cell, so over all cells every crossing pair is reported;
// pairs whose boxes merely share a coarse cell without touching are
// eliminated by the caller's exact segment test. A pair is reported by
// whichever block owns its canonical cell, so blocks never overlap.
func (g *segGrid) forCandidatePairsIn(lo, hi int, report func(i, j int)) {
	for k := lo; k < hi; k++ {
		cell := g.segs[g.start[k]:g.start[k+1]]
		if len(cell) < 2 {
			continue
		}
		cx := int32(k % g.nx)
		cy := int32(k / g.nx)
		for ai, a := range cell {
			ra := g.rngs[a]
			for _, b := range cell[ai+1:] {
				rb := g.rngs[b]
				// Top-left cell of the range overlap owns the pair.
				if max(ra.x0, rb.x0) != cx || max(ra.y0, rb.y0) != cy {
					continue
				}
				// Cells list segments in ascending order, so a < b.
				report(int(a), int(b))
			}
		}
	}
}
