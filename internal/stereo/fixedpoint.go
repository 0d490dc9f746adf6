package stereo

// Fixed-point matching paths (ROADMAP item 2, FP-Stereo-style): intensities
// are quantized to uint8 Q0.8 once per frame, matching costs live in uint16
// struct-of-arrays volumes built by cache-blocked sliding-window kernels
// (sad_fixed.go, sgm_fixed.go, cvf_fixed.go), and only this readout layer
// converts integer costs back to float32 disparities (winner-take-all,
// uniqueness test, parabola subpixel fit). The float implementations remain
// the golden reference: Fixed is opt-in on BMOptions/SGMOptions/CVFOptions,
// and the quantized-oracle differential suite bounds the drift (DESIGN.md
// §9). Census-cost matching and SGM with integral penalties are exactly the
// float results, because every intermediate is a small integer the float
// path also computes exactly.

import (
	"math"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// quantize8 maps a nominal-[0,1] float image onto uint8 Q0.8 samples with
// round-to-nearest; out-of-range values saturate.
func quantize8(im *imgproc.Image) []uint8 {
	out := make([]uint8, len(im.Pix))
	for i, v := range im.Pix {
		switch {
		case v <= 0: // out[i] is already 0
		case v >= 1:
			out[i] = 255
		default:
			out[i] = uint8(v*255 + 0.5)
		}
	}
	return out
}

// mirrorRows returns a copy of the w-wide row-major plane p with every row
// reversed.
func mirrorRows[T uint8 | uint64](p []T, w int) []T {
	m := make([]T, len(p))
	for row := 0; row+w <= len(p); row += w {
		src, dst := p[row:][:w], m[row:][:w]
		for i, v := range src {
			dst[w-1-i] = v
		}
	}
	return m
}

// roundPenalty converts a float smoothness penalty to the uint16 domain.
func roundPenalty(p float32) uint16 {
	r := math.Round(float64(p))
	if r < 0 {
		return 0
	}
	if r > 65535 {
		return 65535
	}
	return uint16(r)
}

// matchFixed is the fixed-point implementation behind Match when
// BMOptions.Fixed is set.
func matchFixed(left, right *imgproc.Image, opt BMOptions) *imgproc.Image {
	w, h := left.W, left.H
	nd := opt.MaxDisp + 1
	out := imgproc.NewImage(w, h)
	var cost rowCoster
	if opt.Census > 0 {
		cost = censusRowCost(census(left, opt.Census), census(right, opt.Census), w)
	} else {
		cost = sadRowCost(quantize8(left), quantize8(right), w)
	}
	r := opt.BlockR
	strips := (h + sadStripRows - 1) / sadStripRows
	par.For(strips, func(s int) {
		y0 := s * sadStripRows
		y1 := min(y0+sadStripRows, h)
		rows := y1 - y0
		adBuf := make([]uint16, w)
		rowSum := make([]uint16, (rows+2*r)*w)
		colSum := make([]uint32, w)
		vol := make([]uint16, rows*nd*w)
		blockCostStrip(cost, w, h, y0, y1, r, nd, adBuf, rowSum, colSum, vol)
		wtaStrip(vol, out, w, y0, y1, nd, opt)
	})
	return out
}

// wtaStrip reads the strip's SoA cost volume out into disparities:
// winner-take-all restricted to d <= x (the float path's left-border rule),
// the uniqueness test, and subpixel refinement. Ties keep the smallest
// disparity, like the float scan's strict less-than.
func wtaStrip(vol []uint16, out *imgproc.Image, w, y0, y1, nd int, opt BMOptions) {
	bestC := make([]uint16, w)
	bestD := make([]int32, w)
	for y := y0; y < y1; y++ {
		rowBase := (y - y0) * nd * w
		for x := range bestC {
			bestC[x] = math.MaxUint16
			bestD[x] = 0
		}
		for d := 0; d < nd; d++ {
			row := vol[rowBase+d*w : rowBase+(d+1)*w]
			for x := d; x < w; x++ {
				if row[x] < bestC[x] {
					bestC[x] = row[x]
					bestD[x] = int32(d)
				}
			}
		}
		for x := 0; x < w; x++ {
			hi := min(nd-1, x)
			bd := int(bestD[x])
			best := bestC[x]
			if best == math.MaxUint16 {
				// Never updated (only possible when every searched cost
				// saturated); d=0 is the winner by the tie rule.
				best = vol[rowBase+0*w+x]
			}
			if opt.UniqRatio > 0 {
				second := math.Inf(1)
				for d := 0; d <= hi; d++ {
					if d >= bd-1 && d <= bd+1 {
						continue
					}
					if c := float64(vol[rowBase+d*w+x]); c < second {
						second = c
					}
				}
				if second < float64(best)*(1+opt.UniqRatio) {
					out.Set(x, y, -1)
					continue
				}
			}
			disp := float64(bd)
			if opt.Subpixel && bd > 0 && bd < hi {
				disp += subpixelFit(
					float64(vol[rowBase+(bd-1)*w+x]),
					float64(vol[rowBase+bd*w+x]),
					float64(vol[rowBase+(bd+1)*w+x]))
			}
			out.Set(x, y, float32(disp))
		}
	}
}

// refineFixed is the fixed-point implementation behind Refine when
// BMOptions.Fixed is set: the guided ±searchR correspondence search, with
// integer block costs from the column-cached refineCostRow kernel.
func refineFixed(left, right, init *imgproc.Image, searchR int, opt BMOptions) *imgproc.Image {
	w, h, r := left.W, left.H, opt.BlockR
	out := imgproc.NewImage(w, h)
	var cols colCoster
	if opt.Census > 0 {
		cols = &censusCols{census(left, opt.Census), mirrorRows(census(right, opt.Census), w), w}
	} else {
		cols = &sadCols{quantize8(left), mirrorRows(quantize8(right), w), w}
	}
	nb := 2*searchR + 1
	band := func(x, y int) (lo, hi int) {
		center := int(math.Round(float64(init.Pix[y*w+x])))
		return max(center-searchR, 0), min(center+searchR, x)
	}
	par.ForChunked(h, func(y0, y1 int) {
		// The column-cost table keeps one disparity stride over the chunk,
		// so cached columns slide from row to row.
		nd := 0
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				if a, b := band(x, y); a <= b {
					nd = max(nd, b+1)
				}
			}
		}
		lo, hi := make([]int, w), make([]int, w)
		costs := make([]uint32, w*nb)
		tbl := make([]uint32, (w+2*r)*nd)
		spans, need := make([]colSpan, w+2*r), make([]colSpan, w+2*r)
		for p := range spans {
			spans[p] = noSpan
		}
		for y := y0; y < y1; y++ {
			for x := range lo {
				lo[x], hi[x] = band(x, y)
			}
			refineCostRow(cols, y, h, r, nb, nd, lo, hi, costs, tbl, spans, need)
			for x, a := range lo {
				b := hi[x]
				if a > b {
					continue
				}
				// Ties keep the smallest disparity, like the float
				// search's strict less-than.
				bc := costs[x*nb:][:b-a+1]
				i := 0
				for j, c := range bc {
					if c < bc[i] {
						i = j
					}
				}
				disp := float64(a + i)
				if opt.Subpixel && i > 0 && i < len(bc)-1 {
					disp += subpixelFit(float64(bc[i-1]), float64(bc[i]), float64(bc[i+1]))
				}
				out.Pix[y*w+x] = float32(disp)
			}
		}
	})
	return out
}

// sgmFixed is the fixed-point implementation behind SGM when
// SGMOptions.Fixed is set.
func sgmFixed(left, right *imgproc.Image, opt SGMOptions) *imgproc.Image {
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	maxCost := uint8((2*opt.CensusR+1)*(2*opt.CensusR+1) - 1)
	cost := costVolumeU8(census(left, opt.CensusR), census(right, opt.CensusR), w, h, nd, maxCost)
	sum := aggregateFixed(cost, w, h, nd, opt.Paths, roundPenalty(opt.P1), roundPenalty(opt.P2))
	return wtaVolumeU16(sum, w, h, nd, opt.Subpixel)
}

// wtaVolumeU16 reads a summed uint16 cost volume (pixel-major, disparity
// innermost) out into disparities — the integer counterpart of wtaVolume.
func wtaVolumeU16(sum []uint16, w, h, nd int, subpixel bool) *imgproc.Image {
	out := imgproc.NewImage(w, h)
	par.For(h, func(y int) {
		for x := 0; x < w; x++ {
			base := (y*w + x) * nd
			best := uint16(math.MaxUint16)
			bestD := 0
			hi := min(nd-1, x)
			for d := 0; d <= hi; d++ {
				if sum[base+d] < best {
					best, bestD = sum[base+d], d
				}
			}
			disp := float64(bestD)
			if subpixel && bestD > 0 && bestD < hi {
				disp += subpixelFit(float64(sum[base+bestD-1]), float64(sum[base+bestD]), float64(sum[base+bestD+1]))
			}
			out.Set(x, y, float32(disp))
		}
	})
	return out
}

// cvfFixed is the fixed-point implementation behind CostVolumeFilter when
// CVFOptions.Fixed is set.
func cvfFixed(left, right *imgproc.Image, opt CVFOptions) *imgproc.Image {
	w, h := left.W, left.H
	nd := opt.MaxDisp + 1
	trunc := uint8(255)
	if t := math.Round(float64(opt.Truncate) * 255); t < 255 {
		if t < 0 {
			t = 0
		}
		trunc = uint8(t)
	}
	l8, r8 := quantize8(left), quantize8(right)
	planes := make([][]uint16, nd)
	par.For(nd, func(d int) {
		ad := make([]uint8, w*h)
		adPlaneU8(l8, r8, w, h, d, trunc, ad)
		dst := make([]uint16, w*h)
		rowBuf := make([]uint16, w*h)
		colSum := make([]uint32, w)
		boxSumU16(ad, w, h, opt.AggR, rowBuf, dst, colSum)
		planes[d] = dst
	})

	out := imgproc.NewImage(w, h)
	par.For(h, func(y int) {
		row := y * w
		for x := 0; x < w; x++ {
			best := uint16(math.MaxUint16)
			bestD := 0
			hi := min(nd-1, x)
			for d := 0; d <= hi; d++ {
				if c := planes[d][row+x]; c < best {
					best, bestD = c, d
				}
			}
			disp := float64(bestD)
			if opt.Subpixel && bestD > 0 && bestD < hi {
				disp += subpixelFit(
					float64(planes[bestD-1][row+x]),
					float64(planes[bestD][row+x]),
					float64(planes[bestD+1][row+x]))
			}
			out.Set(x, y, float32(disp))
		}
	})
	return out
}
