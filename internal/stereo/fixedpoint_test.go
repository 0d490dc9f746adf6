package stereo

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"asv/internal/imgproc"
)

// The fixed-point kernels are validated two independent ways: the sliding
// window implementations must match naive per-candidate integer references
// bit-exactly (this file), and at the repo root the quantized-oracle suite
// bounds their drift against the float reference on the golden-corpus
// presets. Census and integral-penalty SGM additionally match the float
// path bit-exactly, which is asserted here on random images.

func randImage(rng *rand.Rand, w, h int) *imgproc.Image {
	im := imgproc.NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	// A flat patch forces cost ties, exercising the tie-breaking rule.
	for y := h / 4; y < h/2 && y < h; y++ {
		for x := w / 4; x < w/2 && x < w; x++ {
			im.Set(x, y, 0.5)
		}
	}
	return im
}

func randPair(rng *rand.Rand, w, h int) (*imgproc.Image, *imgproc.Image) {
	left := randImage(rng, w, h)
	right := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		d := 2 + y%5
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+d, y)
		}
	}
	return left, right
}

func sameImage(t *testing.T, name string, got, want *imgproc.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d != %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for i := range got.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d,%d): got %v want %v", name, i%got.W, i/got.W, got.Pix[i], want.Pix[i])
		}
	}
}

// sadBlockU8 returns the quantized block SAD of aligning the block around
// (x, y) with disparity d, summed directly per candidate — the reference the
// sliding-window and column-cached kernels are checked against. Border
// handling is clamp-then-shift, matching blockCostStrip.
func sadBlockU8(l8, r8 []uint8, w, h, x, y, d, r int) uint32 {
	var s uint32
	for dy := -r; dy <= r; dy++ {
		row := clampInt(y+dy, 0, h-1) * w
		lrow := l8[row:][:w]
		rrow := r8[row:][:w]
		for dx := -r; dx <= r; dx++ {
			xx := clampInt(x+dx, 0, w-1)
			s += uint32(absDiffU8(lrow[xx], rrow[clampInt(xx-d, 0, w-1)]))
		}
	}
	return s
}

// hamBlockU64 is sadBlockU8's census counterpart: the block Hamming cost
// between census descriptor planes, identical to the float census path.
func hamBlockU64(cl, cr []uint64, w, h, x, y, d, r int) uint32 {
	var s uint32
	for dy := -r; dy <= r; dy++ {
		row := clampInt(y+dy, 0, h-1) * w
		lrow := cl[row:][:w]
		rrow := cr[row:][:w]
		for dx := -r; dx <= r; dx++ {
			xx := clampInt(x+dx, 0, w-1)
			s += uint32(bits.OnesCount64(lrow[xx] ^ rrow[clampInt(xx-d, 0, w-1)]))
		}
	}
	return s
}

// naiveBlockCost returns the per-candidate block cost cand(x, y, d) of the
// configured cost: sadBlockU8 on quantized intensities, or hamBlockU64 on
// census descriptors.
func naiveBlockCost(left, right *imgproc.Image, opt BMOptions) func(x, y, d int) uint32 {
	w, h := left.W, left.H
	if opt.Census > 0 {
		cl, cr := census(left, opt.Census), census(right, opt.Census)
		return func(x, y, d int) uint32 { return hamBlockU64(cl, cr, w, h, x, y, d, opt.BlockR) }
	}
	l8, r8 := quantize8(left), quantize8(right)
	return func(x, y, d int) uint32 { return sadBlockU8(l8, r8, w, h, x, y, d, opt.BlockR) }
}

// naiveFixedMatch recomputes matchFixed's result with direct per-candidate
// block costs (sadBlockU8/hamBlockU64) instead of the sliding-window strips,
// sharing only the readout semantics — an independent check of the
// blockCostStrip bookkeeping.
func naiveFixedMatch(left, right *imgproc.Image, opt BMOptions) *imgproc.Image {
	w, h := left.W, left.H
	cand := naiveBlockCost(left, right, opt)
	out := imgproc.NewImage(w, h)
	costs := make([]float64, opt.MaxDisp+1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			hi := min(opt.MaxDisp, x)
			best := math.Inf(1)
			bestD := 0
			for d := 0; d <= hi; d++ {
				costs[d] = float64(cand(x, y, d))
				if costs[d] < best {
					best, bestD = costs[d], d
				}
			}
			if opt.UniqRatio > 0 {
				second := math.Inf(1)
				for d := 0; d <= hi; d++ {
					if d >= bestD-1 && d <= bestD+1 {
						continue
					}
					if costs[d] < second {
						second = costs[d]
					}
				}
				if second < best*(1+opt.UniqRatio) {
					out.Set(x, y, -1)
					continue
				}
			}
			disp := float64(bestD)
			if opt.Subpixel && bestD > 0 && bestD < hi {
				disp += subpixelFit(costs[bestD-1], costs[bestD], costs[bestD+1])
			}
			out.Set(x, y, float32(disp))
		}
	}
	return out
}

func TestMatchFixedAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		w, h, r, maxD int
		census        int
		uniq          float64
	}{
		{37, 70, 2, 21, 0, 0},   // spans three strips
		{37, 70, 3, 21, 0, 0.3}, // uniqueness path
		{64, 33, 1, 40, 0, 0},   // disparity range near the width
		{37, 70, 2, 21, 2, 0},   // census costs
		{29, 31, 0, 8, 0, 0},    // single-pixel blocks
	} {
		left, right := randPair(rng, tc.w, tc.h)
		opt := BMOptions{BlockR: tc.r, MaxDisp: tc.maxD, Subpixel: true,
			UniqRatio: tc.uniq, Census: tc.census, Fixed: true}
		got := Match(left, right, opt)
		want := naiveFixedMatch(left, right, opt)
		sameImage(t, "matchFixed", got, want)
	}
}

// naiveFixedRefine is the guided ±searchR search with one direct
// sadBlockU8/hamBlockU64 call per candidate — the reference for the
// column-cached refineCostRow kernel behind refineFixed.
func naiveFixedRefine(left, right, init *imgproc.Image, searchR int, opt BMOptions) *imgproc.Image {
	w, h := left.W, left.H
	cand := naiveBlockCost(left, right, opt)
	out := imgproc.NewImage(w, h)
	costs := make([]uint32, 2*searchR+1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			center := int(math.Round(float64(init.At(x, y))))
			lo, hi := max(center-searchR, 0), min(center+searchR, x)
			if lo > hi {
				continue
			}
			best := uint32(math.MaxUint32)
			bestD := lo
			for d := lo; d <= hi; d++ {
				c := cand(x, y, d)
				costs[d-lo] = c
				if c < best {
					best, bestD = c, d
				}
			}
			disp := float64(bestD)
			if opt.Subpixel && bestD > lo && bestD < hi {
				i := bestD - lo
				disp += subpixelFit(float64(costs[i-1]), float64(costs[i]), float64(costs[i+1]))
			}
			out.Set(x, y, float32(disp))
		}
	}
	return out
}

// randInit draws an initial disparity map that exercises every band shape
// of the guided search: runs of one repeated center (the sliding case),
// independent jumps, centers below 0 (empty or clipped bands) and beyond x
// (bands clipped at d <= x), plus fractional values that round.
func randInit(rng *rand.Rand, w, h, maxD int) *imgproc.Image {
	init := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		var c float32
		for x := 0; x < w; x++ {
			switch k := rng.Intn(10); {
			case k < 5 && x > 0: // repeat the previous center
			case k < 6:
				c = -1 - float32(rng.Intn(8)) // below 0
			case k < 7:
				c = float32(x + 1 + rng.Intn(6)) // beyond x
			default:
				c = float32(rng.Intn(maxD+1)) + rng.Float32() - 0.5
			}
			init.Set(x, y, c)
		}
	}
	return init
}

func TestRefineFixedAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, census := range []int{0, 2} {
		for blockR := 0; blockR <= 3; blockR++ {
			for searchR := 1; searchR <= 5; searchR++ {
				// Widths up to 2r+1 clamp every window at both borders; the
				// taller frame slides cached columns down many rows.
				for _, sz := range [][2]int{{1, 9}, {2 * blockR, 9}, {2*blockR + 1, 9}, {37, 9}, {37, 41}} {
					w, h := sz[0], sz[1]
					if w < 1 {
						continue
					}
					left, right := randPair(rng, w, h)
					init := randInit(rng, w, h, 20)
					opt := BMOptions{BlockR: blockR, Subpixel: true, Census: census, Fixed: true}
					got := Refine(left, right, init, searchR, opt)
					want := naiveFixedRefine(left, right, init, searchR, opt)
					sameImage(t, fmt.Sprintf("refine census=%d r=%d searchR=%d w=%d", census, blockR, searchR, w), got, want)
				}
			}
		}
	}
}

// The census-cost fixed path computes exactly the integers the float census
// path computes in float64, so the disparities must be bit-identical.
func TestCensusFixedMatchesFloatBitExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	left, right := randPair(rng, 45, 38)
	opt := BMOptions{BlockR: 3, MaxDisp: 24, Subpixel: true, Census: 2}
	fl := Match(left, right, opt)
	opt.Fixed = true
	fx := Match(left, right, opt)
	sameImage(t, "census match", fx, fl)

	init := imgproc.NewImage(45, 38)
	for i := range init.Pix {
		init.Pix[i] = float32(3 + i%7)
	}
	opt.Fixed = false
	rl := Refine(left, right, init, 3, opt)
	opt.Fixed = true
	rx := Refine(left, right, init, 3, opt)
	sameImage(t, "census refine", rx, rl)
}

// naiveAggregateFixed reuses the float path's per-direction full-volume
// recurrence, in saturating integers, to check the two-pass rolling-row
// aggregation. It sums the directions one after another, in sgmDirs order.
func naiveAggregateFixed(cost []uint8, w, h, nd, paths int, p1, p2 uint16) []uint16 {
	sum := make([]uint16, w*h*nd)
	for i := 0; i < paths; i++ {
		dir := sgmDirs[i]
		dx, dy := dir[0], dir[1]
		lr := make([]uint16, w*h*nd)
		ys := make([]int, h)
		for j := range ys {
			if dy >= 0 {
				ys[j] = j
			} else {
				ys[j] = h - 1 - j
			}
		}
		xs := make([]int, w)
		for j := range xs {
			if dx >= 0 {
				xs[j] = j
			} else {
				xs[j] = w - 1 - j
			}
		}
		for _, y := range ys {
			for _, x := range xs {
				base := (y*w + x) * nd
				px, py := x-dx, y-dy
				if px < 0 || px >= w || py < 0 || py >= h {
					for d := 0; d < nd; d++ {
						lr[base+d] = uint16(cost[base+d])
					}
					continue
				}
				pbase := (py*w + px) * nd
				minPrev := lr[pbase]
				for d := 1; d < nd; d++ {
					minPrev = min(minPrev, lr[pbase+d])
				}
				for d := 0; d < nd; d++ {
					best := lr[pbase+d]
					if d > 0 {
						best = min(best, satAdd16(lr[pbase+d-1], p1))
					}
					if d+1 < nd {
						best = min(best, satAdd16(lr[pbase+d+1], p1))
					}
					best = min(best, satAdd16(minPrev, p2))
					lr[base+d] = satAdd16(uint16(cost[base+d]), best-minPrev)
				}
			}
		}
		for j := range sum {
			sum[j] = satAdd16(sum[j], lr[j])
		}
	}
	return sum
}

func TestAggregateFixedAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randCost := func(w, h, nd int) []uint8 {
		cost := make([]uint8, w*h*nd)
		for i := range cost {
			cost[i] = uint8(rng.Intn(25))
		}
		return cost
	}
	// Saturating volume: d = 0 is near 0 and every other disparity near
	// the uint8 maximum, so with neither penalty ever paying off the path
	// costs of d > 0 climb ~250 per step and the eight-path sum of a
	// 72×72 frame clamps at 65535 away from the borders.
	const sw, sh, snd = 72, 72, 3
	satCost := make([]uint8, sw*sh*snd)
	for i := range satCost {
		if i%snd == 0 {
			satCost[i] = uint8(rng.Intn(8))
		} else {
			satCost[i] = uint8(255 - rng.Intn(8))
		}
	}
	cases := []struct {
		name      string
		w, h, nd  int
		p1, p2    uint16
		cost      []uint8
		saturates bool
	}{
		{"23x17", 23, 17, 12, 1, 7, randCost(23, 17, 12), false},
		{"w=1", 1, 9, 6, 1, 7, randCost(1, 9, 6), false},
		{"h=1", 9, 1, 6, 1, 7, randCost(9, 1, 6), false},
		{"h=2", 9, 2, 6, 1, 7, randCost(9, 2, 6), false}, // the sweeps cross on every row
		{"nd=1", 11, 7, 1, 1, 7, randCost(11, 7, 1), false},
		{"nd=2", 11, 7, 2, 1, 7, randCost(11, 7, 2), false},
		{"odd", 13, 11, 7, 2, 9, randCost(13, 11, 7), false},
		{"saturating", sw, sh, snd, 65535, 65535, satCost, true},
	}
	// One worker runs the forward sweep, then the backward one; two run
	// them concurrently into the shared row-locked volume.
	for _, workers := range []string{"1", "2"} {
		t.Setenv("ASV_WORKERS", workers)
		for _, tc := range cases {
			for _, paths := range []int{4, 8} {
				got := aggregateFixed(tc.cost, tc.w, tc.h, tc.nd, paths, tc.p1, tc.p2)
				want := naiveAggregateFixed(tc.cost, tc.w, tc.h, tc.nd, paths, tc.p1, tc.p2)
				clamped := 0
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s workers=%s paths=%d: cell %d: got %d want %d",
							tc.name, workers, paths, i, got[i], want[i])
					}
					if want[i] == 65535 {
						clamped++
					}
				}
				// The saturating case must clamp some cells and not all,
				// so the order of the saturating adds is really exercised.
				if tc.saturates && paths == 8 && (clamped == 0 || clamped == len(want)) {
					t.Fatalf("%s: %d of %d cells clamped, want some but not all", tc.name, clamped, len(want))
				}
			}
		}
	}
}

// With integral penalties every float SGM intermediate is a small exact
// integer, so the fixed path must reproduce the float disparities bitwise.
func TestSGMFixedMatchesFloatBitExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	left, right := randPair(rng, 41, 29)
	for _, paths := range []int{4, 8} {
		opt := DefaultSGMOptions()
		opt.MaxDisp = 16
		opt.Paths = paths
		fl := SGM(left, right, opt)
		opt.Fixed = true
		fx := SGM(left, right, opt)
		sameImage(t, "sgm", fx, fl)
	}
}

func TestCVFPlaneKernelsAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	w, h := 31, 22
	left, right := randPair(rng, w, h)
	l8, r8 := quantize8(left), quantize8(right)
	const d, trunc = 5, 31
	ad := make([]uint8, w*h)
	adPlaneU8(l8, r8, w, h, d, trunc, ad)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := min(absDiffU8(l8[y*w+x], r8[y*w+clampInt(x-d, 0, w-1)]), uint8(trunc))
			if ad[y*w+x] != want {
				t.Fatalf("adPlane (%d,%d): got %d want %d", x, y, ad[y*w+x], want)
			}
		}
	}
	for _, r := range []int{0, 2, 3} {
		dst := make([]uint16, w*h)
		rowBuf := make([]uint16, w*h)
		boxSumU16(ad, w, h, r, rowBuf, dst, make([]uint32, w))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var want uint32
				for dy := -r; dy <= r; dy++ {
					for dx := -r; dx <= r; dx++ {
						want += uint32(ad[clampInt(y+dy, 0, h-1)*w+clampInt(x+dx, 0, w-1)])
					}
				}
				if uint32(dst[y*w+x]) != want {
					t.Fatalf("boxSum r=%d (%d,%d): got %d want %d", r, x, y, dst[y*w+x], want)
				}
			}
		}
	}
}

func TestQuantize8(t *testing.T) {
	im := imgproc.NewImage(7, 1)
	copy(im.Pix, []float32{-0.5, 0, 0.5, 1, 1.5, 1 / 255.0, 0.0009})
	got := quantize8(im)
	want := []uint8{0, 0, 128, 255, 255, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantize8[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSatMath(t *testing.T) {
	if satAdd16(65000, 65000) != 65535 {
		t.Fatal("satAdd16 did not saturate")
	}
	if satAdd16(3, 4) != 7 {
		t.Fatal("satAdd16 wrong on small values")
	}
	if satU16(1<<20) != 65535 || satU16(123) != 123 {
		t.Fatal("satU16 wrong")
	}
	if absDiffU8(3, 200) != 197 || absDiffU8(200, 3) != 197 || absDiffU8(9, 9) != 0 {
		t.Fatal("absDiffU8 wrong")
	}
}

func TestMatchFixedDisparityQualityOnShiftedPair(t *testing.T) {
	// A pure horizontal shift must be recovered almost everywhere.
	rng := rand.New(rand.NewSource(71))
	w, h := 64, 40
	left := randImage(rng, w, h)
	right := imgproc.NewImage(w, h)
	const shift = 6
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+shift, y)
		}
	}
	opt := BMOptions{BlockR: 3, MaxDisp: 16, Fixed: true}
	disp := Match(left, right, opt)
	bad := 0
	for y := 4; y < h-4; y++ {
		for x := shift + opt.BlockR + 1; x < w-4; x++ {
			if math.Abs(float64(disp.At(x, y))-shift) > 1 {
				bad++
			}
		}
	}
	if frac := float64(bad) / float64(w*h); frac > 0.05 {
		t.Fatalf("fixed match missed the shift on %.1f%% of pixels", 100*frac)
	}
}
