package stereo

import (
	"fmt"
	"math"
	"math/bits"

	"asv/internal/imgproc"
	"asv/internal/par"
)

// SGMOptions configures semi-global matching.
type SGMOptions struct {
	MaxDisp  int     // disparity search range [0, MaxDisp]
	CensusR  int     // census-transform window radius (<= 3 for a 64-bit descriptor)
	P1, P2   float32 // small- and large-jump smoothness penalties
	Paths    int     // 4 or 8 aggregation directions
	Subpixel bool    // parabola subpixel refinement on the aggregated costs
	// Fixed selects the fixed-point aggregation (sgm_fixed.go): uint8 census
	// costs, two-pass rolling-row uint16 path accumulators with saturating
	// adds. With integral P1/P2 (the defaults) the result is bit-identical
	// to the float path; fractional penalties round to the nearest integer.
	Fixed bool
}

// DefaultSGMOptions returns the configuration used for the "HH/SGBN-class"
// classic baseline in the experiments.
func DefaultSGMOptions() SGMOptions {
	return SGMOptions{MaxDisp: 64, CensusR: 2, P1: 1.0, P2: 8.0, Paths: 8, Subpixel: true}
}

// census computes the census transform of im with the given radius: each
// pixel becomes a bit-string recording which neighbours are darker than the
// centre. Radius must be <= 3 so the descriptor fits 64 bits. Rows run in
// parallel: each descriptor reads only im.
func census(im *imgproc.Image, r int) []uint64 {
	if r < 1 || (2*r+1)*(2*r+1)-1 > 64 {
		panic(fmt.Sprintf("stereo: census radius %d out of range", r))
	}
	out := make([]uint64, im.W*im.H)
	par.For(im.H, func(y int) {
		for x := 0; x < im.W; x++ {
			c := im.At(x, y)
			var desc uint64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					desc <<= 1
					if im.At(x+dx, y+dy) < c {
						desc |= 1
					}
				}
			}
			out[y*im.W+x] = desc
		}
	})
	return out
}

// costVolume builds the matching-cost volume C[(y*W+x)*(D+1)+d] as the
// Hamming distance between census descriptors.
func costVolume(left, right *imgproc.Image, opt SGMOptions) []float32 {
	cl := census(left, opt.CensusR)
	cr := census(right, opt.CensusR)
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	vol := make([]float32, w*h*nd)
	maxCost := float32((2*opt.CensusR+1)*(2*opt.CensusR+1) - 1)
	par.For(h, func(y int) {
		for x := 0; x < w; x++ {
			base := (y*w + x) * nd
			for d := 0; d < nd; d++ {
				xr := x - d
				if xr < 0 {
					vol[base+d] = maxCost // out of view: worst cost
					continue
				}
				vol[base+d] = float32(bits.OnesCount64(cl[y*w+x] ^ cr[y*w+xr]))
			}
		}
	})
	return vol
}

var sgmDirs = [8][2]int{
	{1, 0}, {-1, 0}, {0, 1}, {0, -1},
	{1, 1}, {-1, 1}, {1, -1}, {-1, -1},
}

// aggregateDir computes and returns the SGM path costs Lr along direction
// (dx, dy). Directions are independent, so SGM runs them in parallel.
func aggregateDir(cost []float32, w, h, nd int, dx, dy int, p1, p2 float32) []float32 {
	lr := make([]float32, w*h*nd)
	// Visit pixels so that the predecessor along (dx,dy) is already done.
	ys := make([]int, h)
	for i := range ys {
		if dy >= 0 {
			ys[i] = i
		} else {
			ys[i] = h - 1 - i
		}
	}
	xs := make([]int, w)
	for i := range xs {
		if dx >= 0 {
			xs[i] = i
		} else {
			xs[i] = w - 1 - i
		}
	}
	for _, y := range ys {
		for _, x := range xs {
			base := (y*w + x) * nd
			px, py := x-dx, y-dy
			if px < 0 || px >= w || py < 0 || py >= h {
				copy(lr[base:base+nd], cost[base:base+nd])
				continue
			}
			pbase := (py*w + px) * nd
			minPrev := float32(math.Inf(1))
			for d := 0; d < nd; d++ {
				if lr[pbase+d] < minPrev {
					minPrev = lr[pbase+d]
				}
			}
			for d := 0; d < nd; d++ {
				best := lr[pbase+d]
				if d > 0 {
					if v := lr[pbase+d-1] + p1; v < best {
						best = v
					}
				}
				if d+1 < nd {
					if v := lr[pbase+d+1] + p1; v < best {
						best = v
					}
				}
				if v := minPrev + p2; v < best {
					best = v
				}
				lr[base+d] = cost[base+d] + best - minPrev
			}
		}
	}
	return lr
}

// SGM computes a disparity map with semi-global matching: census costs
// aggregated along opt.Paths directions with penalties P1/P2, followed by
// winner-take-all and optional subpixel refinement.
func SGM(left, right *imgproc.Image, opt SGMOptions) *imgproc.Image {
	if left.W != right.W || left.H != right.H {
		panic("stereo: image sizes differ")
	}
	if opt.Paths != 4 && opt.Paths != 8 {
		panic(fmt.Sprintf("stereo: SGM paths must be 4 or 8, got %d", opt.Paths))
	}
	if opt.Fixed {
		return sgmFixed(left, right, opt)
	}
	w, h, nd := left.W, left.H, opt.MaxDisp+1
	cost := costVolume(left, right, opt)
	sum := aggregateAll(cost, w, h, nd, opt.Paths, opt.P1, opt.P2)
	return wtaVolume(sum, w, h, nd, opt.Subpixel)
}

// aggregateAll runs the path aggregation along opt.Paths directions and
// returns the summed cost volume. Split from SGM so the kernel benchmark
// (kernelbench.go) can time aggregation in isolation.
func aggregateAll(cost []float32, w, h, nd, paths int, p1, p2 float32) []float32 {
	lrs := make([][]float32, paths)
	par.For(paths, func(i int) {
		dir := sgmDirs[i]
		lrs[i] = aggregateDir(cost, w, h, nd, dir[0], dir[1], p1, p2)
	})
	sum := lrs[0]
	for _, lr := range lrs[1:] {
		for i := range sum {
			sum[i] += lr[i]
		}
	}
	return sum
}

// wtaVolume reads a summed cost volume (pixel-major, disparity innermost)
// out into disparities: winner-take-all restricted to d <= x with optional
// subpixel refinement.
func wtaVolume(sum []float32, w, h, nd int, subpixel bool) *imgproc.Image {
	out := imgproc.NewImage(w, h)
	par.For(h, func(y int) {
		for x := 0; x < w; x++ {
			base := (y*w + x) * nd
			best := float32(math.Inf(1))
			bestD := 0
			hi := nd - 1
			if hi > x {
				hi = x
			}
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

// SGMMACs estimates the arithmetic cost of SGM on a w×h frame: census
// construction, cost-volume Hamming distances, and per-path DP updates.
func SGMMACs(w, h int, opt SGMOptions) int64 {
	pix := int64(w) * int64(h)
	nd := int64(opt.MaxDisp + 1)
	censusTaps := int64((2*opt.CensusR+1)*(2*opt.CensusR+1) - 1)
	costOps := pix * nd // one Hamming distance per cell
	dpOps := pix * nd * int64(opt.Paths) * 4
	return 2*pix*censusTaps + costOps + dpOps
}
