package stereo

import (
	"math"
	"math/rand"
	"time"

	"asv/internal/imgproc"
)

// Kernel-level ns/pixel benchmarking for the fixed-point work (ROADMAP item
// 2). Each matching kernel is timed in both its float reference and
// fixed-point variant on the same synthetic pair, reporting nanoseconds per
// output pixel — the per-kernel efficiency metric the CI gate tracks in
// BENCH_kernels.json. Pipeline-level wall-clock lives in asvbench -exp
// pipeline; this file isolates the kernels so a regression points at the
// code that caused it.

// KernelPoint is one (kernel, variant, size) benchmark measurement.
type KernelPoint struct {
	Kernel     string  `json:"kernel"`  // sad | census | cvf | sgm-aggregate | wta | refine
	Variant    string  `json:"variant"` // float | fixed
	W          int     `json:"w"`
	H          int     `json:"h"`
	MaxDisp    int     `json:"max_disp"`
	NsPerPixel float64 `json:"ns_per_pixel"`
	// SpeedupX is NsPerPixel(float) / NsPerPixel(fixed) at the same size,
	// recorded on fixed rows only.
	SpeedupX float64 `json:"speedup_x,omitempty"`
}

// benchPair synthesizes a deterministic stereo pair: banded sine texture
// plus seeded noise, with the right view a ~8 px shifted copy, so every
// kernel does representative (non-degenerate) work.
func benchPair(w, h int) (*imgproc.Image, *imgproc.Image) {
	rng := rand.New(rand.NewSource(int64(w)*1_000_003 + int64(h)))
	left := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.5 + 0.3*math.Sin(float64(x)*0.31+float64(y)*0.17) + 0.2*rng.Float64()
			left.Set(x, y, float32(v))
		}
	}
	right := imgproc.NewImage(w, h)
	for y := 0; y < h; y++ {
		d := 6 + (y/8)%5
		for x := 0; x < w; x++ {
			right.Pix[y*w+x] = left.At(x+d, y)
		}
	}
	return left, right
}

// timeKernel returns the minimum ns/pixel over rounds runs of f.
func timeKernel(w, h, rounds int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < max(rounds, 1); i++ {
		start := time.Now()
		f()
		if ns := float64(time.Since(start).Nanoseconds()) / float64(w*h); ns < best {
			best = ns
		}
	}
	return best
}

// kernelVariants names one kernel's float and fixed runners, both closed
// over the same inputs.
type kernelVariants struct {
	name         string
	float, fixed func()
}

// MeasureKernels benchmarks every matching kernel at the given frame sizes
// and disparity range (refine searches ±3 regardless), timing each variant
// rounds times and keeping the fastest run. Results are ordered
// kernel-major with the float row directly before its fixed row.
func MeasureKernels(sizes [][2]int, maxDisp, rounds int) []KernelPoint {
	var points []KernelPoint
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		left, right := benchPair(w, h)
		nd := maxDisp + 1

		bmOpt := BMOptions{BlockR: 3, MaxDisp: maxDisp, Subpixel: true}
		bmFixed := bmOpt
		bmFixed.Fixed = true
		censusOpt := bmOpt
		censusOpt.Census = 2
		censusFixed := censusOpt
		censusFixed.Fixed = true

		cvfOpt := DefaultCVFOptions()
		cvfOpt.MaxDisp = maxDisp
		cvfFixedOpt := cvfOpt
		cvfFixedOpt.Fixed = true

		sgmOpt := DefaultSGMOptions()
		sgmOpt.MaxDisp = maxDisp
		floatCost := costVolume(left, right, sgmOpt)
		maxCost := uint8((2*sgmOpt.CensusR+1)*(2*sgmOpt.CensusR+1) - 1)
		fixedCost := costVolumeU8(census(left, sgmOpt.CensusR), census(right, sgmOpt.CensusR), w, h, nd, maxCost)
		p1, p2 := roundPenalty(sgmOpt.P1), roundPenalty(sgmOpt.P2)
		floatSum := aggregateAll(floatCost, w, h, nd, sgmOpt.Paths, sgmOpt.P1, sgmOpt.P2)
		fixedSum := aggregateFixed(fixedCost, w, h, nd, sgmOpt.Paths, p1, p2)

		// Guided refine (the ISM non-key step) at the pipeline's defaults,
		// ±3 around the fixed SAD match, which stands in for a propagated
		// disparity map.
		refineOpt := BMOptions{BlockR: 2, Subpixel: true}
		refineFixedOpt := refineOpt
		refineFixedOpt.Fixed = true
		refineInit := Match(left, right, bmFixed)

		kernels := []kernelVariants{
			{"sad",
				func() { Match(left, right, bmOpt) },
				func() { Match(left, right, bmFixed) }},
			{"census",
				func() { Match(left, right, censusOpt) },
				func() { Match(left, right, censusFixed) }},
			{"cvf",
				func() { CostVolumeFilter(left, right, cvfOpt) },
				func() { CostVolumeFilter(left, right, cvfFixedOpt) }},
			{"sgm-aggregate",
				func() { aggregateAll(floatCost, w, h, nd, sgmOpt.Paths, sgmOpt.P1, sgmOpt.P2) },
				func() { aggregateFixed(fixedCost, w, h, nd, sgmOpt.Paths, p1, p2) }},
			{"wta",
				func() { wtaVolume(floatSum, w, h, nd, true) },
				func() { wtaVolumeU16(fixedSum, w, h, nd, true) }},
			{"refine",
				func() { Refine(left, right, refineInit, 3, refineOpt) },
				func() { Refine(left, right, refineInit, 3, refineFixedOpt) }},
		}
		for _, k := range kernels {
			fl := timeKernel(w, h, rounds, k.float)
			fx := timeKernel(w, h, rounds, k.fixed)
			points = append(points,
				KernelPoint{Kernel: k.name, Variant: "float", W: w, H: h, MaxDisp: maxDisp, NsPerPixel: fl},
				KernelPoint{Kernel: k.name, Variant: "fixed", W: w, H: h, MaxDisp: maxDisp, NsPerPixel: fx, SpeedupX: fl / fx})
		}
	}
	return points
}
