package stereo

import (
	"math"
	"math/bits"
)

// Fixed-point block-matching cost kernels (integer-only file; see
// satmath_fixed.go). The full-search matcher is restructured from the float
// path's O(block²) work per candidate into sliding-window row/column sums
// reused across candidates: one absolute-difference (or census-Hamming) row
// per (row, disparity), slid horizontally in O(1) per pixel, then slid
// vertically down a strip of rows. Per strip the kernel materializes a
// struct-of-arrays uint16 cost volume laid out [row][disparity][x], sized by
// sadStripRows to stay L2-resident (see DESIGN.md §9).

// rowCoster fills dst[x] with the per-pixel matching cost at (x, yy) for
// disparity d: quantized absolute difference for SAD, census Hamming
// distance otherwise. Implementations clamp the right-view column to the
// image (clamp-then-shift, matching the float census path's border rule).
type rowCoster func(yy, d int, dst []uint16)

// sadRowCost matches uint8-quantized intensities.
func sadRowCost(l8, r8 []uint8, w int) rowCoster {
	return func(yy, d int, dst []uint16) {
		// Hoisting the row windows pins every slice length to w, so the
		// prove pass drops all per-pixel bounds checks (perf_contract.json
		// holds this function to zero).
		if w <= 0 {
			return
		}
		row := yy * w
		lr := l8[row:][:w]
		rr := r8[row:][:w]
		dst = dst[:w]
		// Columns with x-d < 0 clamp to the row start, exactly like the
		// quantized reference in the differential tests. Clamping d once
		// (a no-op for valid disparities) and phrasing the shifted loop as
		// three windows sharing one length lets prove drop the x-d checks.
		if d < 0 {
			d = 0
		}
		if d > w {
			d = w
		}
		border := rr[0]
		db := dst[:d]
		for x, lv := range lr[:d] {
			db[x] = uint16(absDiffU8(lv, border))
		}
		n := w - d
		lo := lr[d:][:n]
		ro := rr[:n]
		do := dst[d:][:n]
		for i, rv := range ro {
			do[i] = uint16(absDiffU8(lo[i], rv))
		}
	}
}

// censusRowCost matches precomputed census descriptor planes.
func censusRowCost(cl, cr []uint64, w int) rowCoster {
	return func(yy, d int, dst []uint16) {
		if w <= 0 {
			return
		}
		row := yy * w
		lr := cl[row:][:w]
		rr := cr[row:][:w]
		dst = dst[:w]
		if d < 0 {
			d = 0
		}
		if d > w {
			d = w
		}
		border := rr[0]
		db := dst[:d]
		for x, lv := range lr[:d] {
			db[x] = uint16(bits.OnesCount64(lv ^ border))
		}
		n := w - d
		lo := lr[d:][:n]
		ro := rr[:n]
		do := dst[d:][:n]
		for i, rv := range ro {
			do[i] = uint16(bits.OnesCount64(lo[i] ^ rv))
		}
	}
}

// sadStripRows is the row-band height of the strip-blocked matcher. The
// per-strip working set is the SoA cost volume (sadStripRows·nd·W uint16,
// ~1.3 MiB at W=320, nd=65) plus the row-sum ring ((sadStripRows+2r)·W
// uint16), which together stay L2-resident at the frame sizes this repo
// serves while leaving enough strips to parallelize across rows.
const sadStripRows = 32

// blockCostStrip fills vol, the strip's struct-of-arrays cost volume
//
//	vol[((y-y0)*nd + d)*w + x] = Σ_{|dy|<=r, |dx|<=r} cost(clamp(x+dx), clamp(y+dy), d)
//
// for rows [y0, y1) of an h-row image, using one rowCoster evaluation per
// (row, disparity) and O(1) sliding-window updates per pixel. adBuf must
// hold w entries, rowSum (y1-y0+2r)*w entries, and colSum w entries; all are
// scratch owned by the calling strip. The vertical pass walks row-major (one
// uint32 running sum per column, advanced a full row at a time) so every
// inner loop streams four equal-length row windows — the layout the prove
// pass needs to drop all per-pixel bounds checks, and the one the prefetcher
// likes.
func blockCostStrip(cost rowCoster, w, h, y0, y1, r, nd int, adBuf []uint16, rowSum []uint16, colSum []uint32, vol []uint16) {
	rows := y1 - y0
	for d := 0; d < nd; d++ {
		// Row block sums for every image row the vertical window touches,
		// with replicate clamping at the top and bottom borders.
		for yy := y0 - r; yy < y1+r; yy++ {
			cost(clampInt(yy, 0, h-1), d, adBuf)
			slideRow(adBuf, w, r, rowSum[(yy-(y0-r))*w:])
		}
		// Vertical sliding window down the strip, exact uint32 running sums.
		cs := colSum[:w]
		for x := range cs {
			cs[x] = 0
		}
		for dy := 0; dy <= 2*r; dy++ {
			rs := rowSum[dy*w:][:w]
			for x, v := range rs {
				cs[x] += uint32(v)
			}
		}
		out := vol[d*w:][:w]
		for x, s := range cs {
			out[x] = satU16(s)
		}
		for i := 1; i < rows; i++ {
			add := rowSum[(i+2*r)*w:][:w]
			sub := rowSum[(i-1)*w:][:w]
			out := vol[(i*nd+d)*w:][:w]
			for x, s := range cs {
				s += uint32(add[x]) - uint32(sub[x])
				cs[x] = s
				out[x] = satU16(s)
			}
		}
	}
}

// slideRow fills dst[x] with the horizontally clamped window sum
// Σ_{|dx|<=r} src[clamp(x+dx)] via an exact uint32 running sum. When the
// window fits the row it is split into clamped borders and a branch-free
// interior whose three windows are equal-length subslices of src and dst —
// zero bounds checks per pixel (pinned by perf_contract.json).
func slideRow(src []uint16, w, r int, dst []uint16) {
	if w <= 0 {
		return
	}
	src = src[:w]
	dst = dst[:w]
	if r <= 0 || w <= 2*r {
		// Degenerate row (or r == 0): every window touches a border, or no
		// window slides at all; fall back to clamped indexing.
		var s uint32
		for dx := -r; dx <= r; dx++ {
			s += uint32(src[clampInt(dx, 0, w-1)])
		}
		dst[0] = satU16(s)
		for x := 1; x < w; x++ {
			s += uint32(src[clampInt(x+r, 0, w-1)])
			s -= uint32(src[clampInt(x-1-r, 0, w-1)])
			dst[x] = satU16(s)
		}
		return
	}
	// x = 0: dx in [-r, 0] all clamp to src[0].
	left := uint32(src[0])
	s := left * uint32(r+1)
	for _, v := range src[1 : r+1] {
		s += uint32(v)
	}
	dst[0] = satU16(s)
	// Left border, x in [1, r]: the outgoing sample clamps to src[0]. The
	// incoming window and the output share one length, so prove elides the
	// per-pixel checks.
	win := src[r+1:][:r]
	outl := dst[1:][:r]
	for i, v := range win {
		s += uint32(v) - left
		outl[i] = satU16(s)
	}
	// Interior, x in [r+1, w-r-1]: no clamping; adds, subs and the output
	// are three subslices sharing one length, so prove elides every check.
	n := w - 2*r - 1
	adds := src[2*r+1:][:n]
	subs := src[:n]
	outi := dst[r+1:][:n]
	for i, a := range adds {
		s += uint32(a) - uint32(subs[i])
		outi[i] = satU16(s)
	}
	// Right border, x in [w-r, w-1]: the incoming sample clamps to src[w-1],
	// the outgoing samples are src[w-2r-1 : w-r-1].
	right := uint32(src[w-1])
	tail := src[w-2*r-1:][:r]
	outr := dst[w-r:][:r]
	for i, v := range tail {
		s += right - uint32(v)
		outr[i] = satU16(s)
	}
}

// colCoster adds one image row's matching costs to the vertical column
// costs of the guided refinement,
//
//	col_y(xx, d) = Σ_{|dy|<=r} cost(xx, clamp(y+dy), d).
//
// addRow adds sign·cost(xx, yy, a+i) to dst[i] for left column xx
// (0 <= xx < w) at the consecutive disparities a, a+1, … (a >= 0) that dst
// covers; sign is 1, or subRow to subtract in exact uint32 arithmetic. Right
// columns xx-d < 0 clamp to column 0 (clamp-then-shift, as in rowCoster).
// Implementations read the right view with every row mirrored
// (mirrorRows), so the right columns xx-a, xx-a-1, … that consecutive
// disparities need are consecutive samples.
type colCoster interface {
	addRow(yy, xx, a int, sign uint32, dst []uint32)
}

// subRow is the addRow sign that subtracts: -1 in two's complement.
const subRow = ^uint32(0)

// colSplit returns how many of the disparities a, a+1, … of column xx
// (at most n) read inside the right row, and the mirrored sample the first
// of them reads (past the row only when none does). The rest read the
// clamped border column.
func colSplit(w, xx, a, n int) (m, first int) {
	return min(max(xx-a+1, 0), n), min(w-1-xx+a, w)
}

// sadCols is the colCoster of uint8-quantized intensities; r8m holds the
// right view's rows mirrored.
type sadCols struct {
	l8, r8m []uint8
	w       int
}

func (c *sadCols) addRow(yy, xx, a int, sign uint32, dst []uint32) {
	w := c.w
	// Callers pass clamped columns; the guard lets the prove pass drop the
	// lrow[xx] check.
	if xx < 0 || xx >= w {
		return
	}
	m, first := colSplit(w, xx, a, len(dst))
	lrow := c.l8[yy*w:][:w]
	mrow := c.r8m[yy*w:][:w]
	lv := lrow[xx]
	in, out := dst[:m], dst[m:]
	for i, rv := range mrow[first:][:m] {
		in[i] += sign * uint32(absDiffU8(lv, rv))
	}
	b := sign * uint32(absDiffU8(lv, mrow[w-1]))
	for i := range out {
		out[i] += b
	}
}

// censusCols is sadCols' census counterpart over descriptor planes; crm
// holds the right plane's rows mirrored.
type censusCols struct {
	cl, crm []uint64
	w       int
}

func (c *censusCols) addRow(yy, xx, a int, sign uint32, dst []uint32) {
	w := c.w
	if xx < 0 || xx >= w {
		return
	}
	m, first := colSplit(w, xx, a, len(dst))
	lrow := c.cl[yy*w:][:w]
	mrow := c.crm[yy*w:][:w]
	lv := lrow[xx]
	in, out := dst[:m], dst[m:]
	for i, rv := range mrow[first:][:m] {
		in[i] += sign * uint32(bits.OnesCount64(lv^rv))
	}
	b := sign * uint32(bits.OnesCount64(lv^mrow[w-1]))
	for i := range out {
		out[i] += b
	}
}

// colSpan is a disparity interval [lo, hi]; lo > hi is empty.
type colSpan struct{ lo, hi int }

// noSpan is the empty colSpan: intersecting it leaves nothing, and a
// min/max union with it yields the other operand.
var noSpan = colSpan{math.MaxInt, -1}

// refineCostRow is the guided-refinement cost kernel for image row y. Pixel
// x searches the disparity band [lo[x], hi[x]] (skipped when
// lo[x] > hi[x]; otherwise 0 <= lo[x] and hi[x] < nd) and receives the block
// costs
//
//	costs[x*nb + d-lo[x]] = Σ_{|dx|<=r} col_y(clamp(x+dx), d)
//
// of every d in its band (nb >= hi[x]-lo[x]+1). Column costs are cached in
// tbl, (w+2r)·nd cells laid out [padded column][disparity]: padded column p
// holds image column clamp(p-r), so pixel x's window is columns x..x+2r.
// Each column holds just the hull of the bands of the pixels whose window
// covers it, and spans (w+2r entries) records that hull. Callers run the
// rows of a chunk in order with one tbl and spans, spans starting as
// noSpan: a disparity a column held for row y-1 slides down to row y by one
// row in and one row out, and only the rest is summed afresh. Along the
// row, a disparity that pixel x-1 also scored slides its box sum in O(1):
// drop column x-1, add column x+2r. All sums are exact uint32, so every
// cost equals the per-candidate O(block²) sum.
func refineCostRow(cols colCoster, y, h, r, nb, nd int, lo, hi []int, costs, tbl []uint32, spans, need []colSpan) {
	w := len(lo)
	hi = hi[:w]
	costs = costs[:w*nb]
	pw := w + 2*r
	tbl = tbl[:pw*nd]
	spans = spans[:pw]
	need = need[:pw]
	n := 2*r + 1
	for p := range need {
		need[p] = noSpan
	}
	for x, a := range lo {
		b := hi[x]
		if a > b {
			continue
		}
		win := need[x:][:n]
		for i, s := range win {
			win[i] = colSpan{min(s.lo, a), max(s.hi, b)}
		}
	}
	for p, s := range need {
		old := spans[p]
		spans[p] = s
		if s.lo > s.hi {
			continue
		}
		xx := clampInt(p-r, 0, w-1)
		c := tbl[p*nd:][:nd]
		// Disparities the column held for row y-1 slide; the rest of the
		// hull is summed afresh.
		ia, ib := max(s.lo, old.lo), min(s.hi, old.hi)
		if ia > ib {
			ia, ib = s.hi+1, s.hi
		}
		if s.lo < ia {
			fillCol(cols, y, h, r, xx, s.lo, c[s.lo:ia])
		}
		if ia <= ib {
			cols.addRow(clampInt(y+r, 0, h-1), xx, ia, 1, c[ia:ib+1])
			cols.addRow(clampInt(y-1-r, 0, h-1), xx, ia, subRow, c[ia:ib+1])
		}
		if ib < s.hi {
			fillCol(cols, y, h, r, xx, ib+1, c[ib+1:s.hi+1])
		}
	}
	prev := noSpan // the band of pixel x-1
	for x, a := range lo {
		b := hi[x]
		if a > b {
			prev = noSpan
			continue
		}
		cur := costs[x*nb:][:b-a+1]
		// Disparities in both bands slide; the rest are summed over the
		// full window.
		oa, ob := max(a, prev.lo), min(b, prev.hi)
		if oa > ob {
			oa, ob = b+1, b
		}
		sumCols(cur[:oa-a], tbl, nd, x, n, a)
		sumCols(cur[ob+1-a:], tbl, nd, x, n, ob+1)
		if oa <= ob {
			m := ob - oa + 1
			pc := costs[(x-1)*nb+oa-prev.lo:][:m]
			drop := tbl[(x-1)*nd+oa:][:m]
			add := tbl[(x+2*r)*nd+oa:][:m]
			c := cur[oa-a:][:m]
			for i, v := range pc {
				c[i] = v - drop[i] + add[i]
			}
		}
		prev = colSpan{a, b}
	}
}

// fillCol sets dst[i] = col_y(xx, a+i) over the 2r+1 clamped rows of an
// h-row image.
func fillCol(cols colCoster, y, h, r, xx, a int, dst []uint32) {
	clear(dst)
	for dy := -r; dy <= r; dy++ {
		cols.addRow(clampInt(y+dy, 0, h-1), xx, a, 1, dst)
	}
}

// sumCols fills dst[i] with the sum of disparity d0+i over the n table
// columns p0, p0+1, … (row stride nd).
func sumCols(dst, tbl []uint32, nd, p0, n, d0 int) {
	if len(dst) == 0 {
		return
	}
	clear(dst)
	for p := p0; p < p0+n; p++ {
		for i, v := range tbl[p*nd+d0:][:len(dst)] {
			dst[i] += v
		}
	}
}
