package stereo

import (
	"math/bits"
	"sync"

	"asv/internal/par"
)

// Fixed-point SGM aggregation (integer-only file; see satmath_fixed.go).
//
// The float path materializes one full float32 Lr volume per direction
// (8·W·H·D·4 bytes) and reduces them afterwards. The fixed path instead
// makes two sweeps over the uint8 census-cost volume — a forward pass
// (top-down, left-to-right) carrying the W/NW/N/NE directions and a backward
// pass (bottom-up, right-to-left) carrying E/SW/S/SE — and each direction
// keeps only two rolling rows of uint16 path costs (2·W·(D+1) cells: each
// pixel's D costs and their minimum). The two sweeps run concurrently and
// accumulate into one uint16 sum volume with saturating adds as path costs
// are produced, so the working set per row is a few hundred KiB instead of
// eight full volumes. The recurrence, visiting order per path, and border
// rule are exactly the float ones, so with integral penalties the summed
// costs are bit-identical to the float aggregation.

// costVolumeU8 builds the uint8 census-Hamming cost volume
// C[(y*W+x)*(D+1)+d]; cells whose right-view column falls outside the image
// get maxCost, like the float path.
func costVolumeU8(cl, cr []uint64, w, h, nd int, maxCost uint8) []uint8 {
	vol := make([]uint8, w*h*nd)
	par.For(h, func(y int) {
		row := y * w
		clRow := cl[row:][:w]
		crRow := cr[row:][:w]
		for x := 0; x < w; x++ {
			cells := vol[(row+x)*nd:][:nd]
			l := clRow[x]
			hi := nd
			if hi > x+1 {
				hi = x + 1
			}
			for d := 0; d < hi; d++ {
				cells[d] = uint8(bits.OnesCount64(l ^ crRow[x-d]))
			}
			for d := hi; d < nd; d++ {
				cells[d] = maxCost
			}
		}
	})
	return vol
}

// sgmStepFixed computes one pixel's nd = len(dst)-1 path costs dst[0:nd]
// along a direction from the predecessor's cells prev (nil at a path start,
// where the costs are a copy of the matching costs), accumulates them into
// sum with saturating adds, and stores their minimum in dst[nd]. The
// successor reads that minimum as prev[nd] instead of rescanning nd costs.
// The d loop is peeled at both ends so the interior is branch-free: per
// disparity it is two saturating adds, four mins and a subtraction, the
// form that maps onto conditional moves.
func sgmStepFixed(dst, prev, sum []uint16, costRow []uint8, p1, p2 uint16) {
	// Deriving nd from len(dst) and pinning every other slice length to it
	// (and branching on nd < 2, so the tail below runs with nd >= 2 proven)
	// lets prove drop all per-disparity bounds checks; perf_contract.json
	// holds this function to zero.
	nd := len(dst) - 1
	if nd <= 0 {
		return
	}
	sum = sum[:nd]
	costRow = costRow[:nd]
	if prev == nil {
		m := uint16(costRow[0])
		for d := 0; d < nd; d++ {
			c := uint16(costRow[d])
			dst[d] = c
			sum[d] = satAdd16(sum[d], c)
			m = min(m, c)
		}
		dst[nd] = m
		return
	}
	prev = prev[:len(dst)]
	minPrev := prev[nd]
	jump := satAdd16(minPrev, p2)
	if nd < 2 {
		v := satAdd16(uint16(costRow[0]), min(prev[0], jump)-minPrev)
		dst[0] = v
		dst[nd] = v
		sum[0] = satAdd16(sum[0], v)
		return
	}
	// d = 0: no d-1 neighbour.
	best := min(min(prev[0], satAdd16(prev[1], p1)), jump)
	v := satAdd16(uint16(costRow[0]), best-minPrev)
	dst[0] = v
	sum[0] = satAdd16(sum[0], v)
	m := v
	// Interior, d in [1, nd-2]: the three prev taps and the three outputs
	// are windows sharing one length, so prove elides every check.
	n := nd - 2
	pm := prev[:n]
	pc := prev[1:][:n]
	pp := prev[2:][:n]
	dc := dst[1:][:n]
	sc := sum[1:][:n]
	cc := costRow[1:][:n]
	for i, pcv := range pc {
		best = min(min(pcv, jump), satAdd16(min(pm[i], pp[i]), p1))
		v = satAdd16(uint16(cc[i]), best-minPrev)
		dc[i] = v
		sc[i] = satAdd16(sc[i], v)
		m = min(m, v)
	}
	// d = nd-1: no d+1 neighbour. costRow and sum are indexed from their
	// own length: written as nd-1, prove elides only one of the two checks.
	best = min(min(prev[nd-1], satAdd16(prev[nd-2], p1)), jump)
	v = satAdd16(uint16(costRow[len(costRow)-1]), best-minPrev)
	dst[nd-1] = v
	sum[len(sum)-1] = satAdd16(sum[len(sum)-1], v)
	dst[nd] = min(m, v)
}

// sgmRolling is one direction's pair of rolling Lr rows. A pixel takes
// nd+1 cells: its nd path costs, then their minimum (see sgmStepFixed).
type sgmRolling struct {
	prev, cur []uint16 // w*(nd+1) cells of the previous and current row
}

func newSGMRolling(w, nd int) *sgmRolling {
	return &sgmRolling{prev: make([]uint16, w*(nd+1)), cur: make([]uint16, w*(nd+1))}
}

func (s *sgmRolling) swap() { s.prev, s.cur = s.cur, s.prev }

// aggregateFixed sums the SGM path costs over 4 or 8 directions into a
// uint16 volume with the same layout as cost. The forward and backward
// sweeps run concurrently (one after the other with one worker) and add
// into the same volume, each holding the lock of the row it works on, so
// they wait for each other only at the row where they cross. Every operand
// is a non-negative uint16, so saturating adds are order-independent —
// min(min(a+b, M)+c, M) = min(a+b+c, M) — and the sum does not depend on
// which sweep reaches a row first.
func aggregateFixed(cost []uint8, w, h, nd, paths int, p1, p2 uint16) []uint16 {
	sum := make([]uint16, w*h*nd)
	rows := make([]sync.Mutex, h)
	par.For(2, func(i int) {
		aggregateSweep(cost, sum, rows, w, nd, paths == 8, i == 1, p1, p2)
	})
	return sum
}

// aggregateSweep runs one of aggregateFixed's two passes over the
// len(rows) rows of cost. The forward pass visits rows top-down and pixels
// left-to-right; the backward pass visits bottom-up and right-to-left.
// Each carries the horizontal path from the pixel visited before, the
// vertical path from the row visited before and, with diag, the two
// diagonal paths from that row, so between them the passes cover all
// eight directions.
func aggregateSweep(cost []uint8, sum []uint16, rows []sync.Mutex, w, nd int, diag, backward bool, p1, p2 uint16) {
	stride := nd + 1
	hor := newSGMRolling(w, nd)
	ver := newSGMRolling(w, nd)
	var dl, dr *sgmRolling
	if diag {
		dl = newSGMRolling(w, nd) // predecessor at x-1 in the row before
		dr = newSGMRolling(w, nd) // predecessor at x+1 in the row before
	}
	x0, y0, step := 0, 0, 1
	if backward {
		x0, y0, step = w-1, len(rows)-1, -1
	}
	hp := -step * stride // the horizontal predecessor's offset in hor.cur
	// Both loops test both bounds, so rows[y] needs no index check.
	for y := y0; y >= 0 && y < len(rows); y += step {
		hor.swap()
		ver.swap()
		if diag {
			dl.swap()
			dr.swap()
		}
		rows[y].Lock()
		for x := x0; x >= 0 && x < w; x += step {
			c := (y*w + x) * nd
			costRow := cost[c : c+nd]
			sumRow := sum[c : c+nd]
			b := x * stride
			var pHor, pVer []uint16
			if x != x0 {
				pHor = hor.cur[b+hp:][:stride]
			}
			if y != y0 {
				pVer = ver.prev[b:][:stride]
			}
			sgmStepFixed(hor.cur[b:][:stride], pHor, sumRow, costRow, p1, p2)
			sgmStepFixed(ver.cur[b:][:stride], pVer, sumRow, costRow, p1, p2)
			if diag {
				var pDL, pDR []uint16
				if x > 0 && y != y0 {
					pDL = dl.prev[b-stride:][:stride]
				}
				if x+1 < w && y != y0 {
					pDR = dr.prev[b+stride:][:stride]
				}
				sgmStepFixed(dl.cur[b:][:stride], pDL, sumRow, costRow, p1, p2)
				sgmStepFixed(dr.cur[b:][:stride], pDR, sumRow, costRow, p1, p2)
			}
		}
		rows[y].Unlock()
	}
}
