// Package core implements ASV's primary contribution: the invariant-based
// stereo matching (ISM) algorithm of paper Sec. 3.
//
// ISM exploits the correspondence invariant of stereo imaging — two pixels
// that are projections of the same physical point remain a matched pair in
// every frame, even as their image locations move. The pipeline therefore
// runs an expensive, high-accuracy matcher (a stereo DNN in the paper) only
// on key frames, and on the frames in between:
//
//  1. reconstructs the correspondence pairs from the previous disparity map,
//  2. propagates each pair with dense optical flow computed on the left and
//     right video streams independently, and
//  3. refines the propagated estimate with a cheap 1-D guided block-matching
//     search.
//
// The propagation-window parameter PW makes every PW-th frame a key frame
// (PW-2 and PW-4 in the paper's Fig. 9); Pipeline.NextIsKey is the rule.
package core

import (
	"fmt"
	"math"

	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// KeyMatcher produces a disparity map for a key frame. In the paper this is
// a stereo DNN; the reproduction provides an SGM-based matcher and a
// ground-truth oracle calibrated to published DNN error rates (DESIGN.md).
type KeyMatcher interface {
	// Match returns the disparity map of the left image.
	Match(left, right *imgproc.Image) *imgproc.Image
	// MACs returns the arithmetic cost of one Match call on a w×h frame.
	MACs(w, h int) int64
	// Name identifies the matcher in reports.
	Name() string
}

// Config holds the ISM tuning parameters.
type Config struct {
	// PW is the propagation window: a key frame is processed every PW
	// frames. PW=1 disables ISM (every frame is a key frame).
	PW int
	// FlowScale computes optical flow at 1/FlowScale resolution and
	// upsamples the motion vectors; 2 is the default speed/accuracy point.
	FlowScale int
	// Flow configures the Farneback estimator.
	Flow flow.Options
	// RefineR is the ±radius of the guided correspondence search (step 4).
	RefineR int
	// BM configures the SAD block used by the guided search.
	BM stereo.BMOptions
	// Adaptive, when non-nil, replaces the PW window with the
	// motion-triggered key-frame controller (see AdaptiveConfig).
	Adaptive *AdaptiveConfig
	// ME overrides the motion estimator (nil selects FarnebackME with the
	// Flow options and FlowScale above — the paper's choice).
	ME MotionEstimator
	// Postprocess applies a 3×3 validity-aware median to non-key disparity
	// maps, suppressing the isolated propagation errors that occlusion and
	// fast motion produce (the artifacts Sec. 3.2 calls out).
	Postprocess bool
}

// me returns the configured motion estimator.
func (c Config) me() MotionEstimator {
	if c.ME != nil {
		return c.ME
	}
	return FarnebackME{Opt: c.Flow, Scale: c.FlowScale}
}

// MotionSource returns the motion estimator the pipeline will use: Config.ME
// when set, the paper's Farneback estimator otherwise. The streaming runtime
// calls it to precompute flows on worker goroutines, so implementations must
// be safe for concurrent Estimate calls (all built-in estimators are
// stateless values).
func (c Config) MotionSource() MotionEstimator { return c.me() }

// KeyDue reports whether a key frame is due sinceKey frames after the last
// one: once sinceKey reaches PW, or Adaptive.MaxWindow when the
// motion-triggered controller is on. Pipeline.NextIsKey applies it to the
// committed stream; the streaming runtime's dispatcher applies it ahead of
// the commits.
func (c Config) KeyDue(sinceKey int) bool {
	if c.Adaptive != nil {
		return sinceKey >= c.Adaptive.MaxWindow
	}
	return sinceKey >= c.PW
}

// DefaultConfig returns the configuration used in the evaluation: PW-4,
// half-resolution Farneback flow and a ±3 guided search with 5×5 blocks.
func DefaultConfig() Config {
	bm := stereo.DefaultBMOptions()
	bm.BlockR = 2
	return Config{
		PW:        4,
		FlowScale: 2,
		Flow:      flow.DefaultOptions(),
		RefineR:   3,
		BM:        bm,
	}
}

func (c Config) validate() {
	if c.PW < 1 {
		panic(fmt.Sprintf("core: propagation window %d < 1", c.PW))
	}
	if c.FlowScale < 1 {
		panic(fmt.Sprintf("core: flow scale %d < 1", c.FlowScale))
	}
	if c.RefineR < 1 {
		panic(fmt.Sprintf("core: refine radius %d < 1", c.RefineR))
	}
	if c.Adaptive != nil {
		c.Adaptive.validate()
	}
}

// Result reports one processed stereo pair.
type Result struct {
	Disparity *imgproc.Image // disparity map on the left grid
	IsKey     bool           // whether the frame ran the key matcher
	MACs      int64          // arithmetic cost charged for this frame
	// MeanMotionPx is the mean per-pixel motion magnitude measured on a
	// non-key frame (0 on key frames); the adaptive controller keys off it.
	MeanMotionPx float64
}

// Pipeline is the stateful ISM engine. It is not safe for concurrent use;
// process frames of one stream from a single goroutine.
type Pipeline struct {
	cfg     Config
	matcher KeyMatcher

	frameIdx  int
	sinceKey  int
	needKey   bool
	prevLeft  *imgproc.Image
	prevRight *imgproc.Image
	prevDisp  *imgproc.Image
}

// New returns a pipeline that calls matcher on key frames. matcher may be
// nil only if the caller always supplies key disparities via ProcessKey.
func New(matcher KeyMatcher, cfg Config) *Pipeline {
	cfg.validate()
	return &Pipeline{cfg: cfg, matcher: matcher}
}

// Config returns the pipeline's (validated) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// SetConfig replaces the pipeline's tuning parameters in place, leaving the
// temporal state untouched. The quality ladder uses it to apply a rung's
// stretched window and fixed-point refine kernels to one frame; callers that
// change parameters the temporal kernels are sensitive to (flow options,
// refine radius) own the accuracy consequences. Panics, like New, on an
// invalid configuration.
func (p *Pipeline) SetConfig(cfg Config) {
	cfg.validate()
	p.cfg = cfg
}

// PrevFrames returns the previous frame's left and right images — the
// reference inputs a motion estimator needs to compute flow to the current
// frame — or nil before the first key frame. pipeline.ProcessFrame uses it
// to run flow estimation outside the pipeline and commit via
// ProcessNonKeyWith.
func (p *Pipeline) PrevFrames() (left, right *imgproc.Image) {
	return p.prevLeft, p.prevRight
}

// Reset clears the temporal state, forcing the next frame to be a key frame.
func (p *Pipeline) Reset() {
	p.frameIdx = 0
	p.sinceKey = 0
	p.needKey = false
	p.prevLeft, p.prevRight, p.prevDisp = nil, nil, nil
}

// FrameIndex returns the number of frames processed since the last Reset.
func (p *Pipeline) FrameIndex() int { return p.frameIdx }

// NextIsKey reports whether the next frame is a key frame. It is ISM's one
// key-frame rule: a key frame when there is no committed disparity to
// propagate from, when the adaptive controller asked for one, or once the
// window is due (Config.KeyDue). The frame index plays no part, so the
// schedule stays coherent when SetConfig changes the window mid-stream.
func (p *Pipeline) NextIsKey() bool {
	return p.prevDisp == nil || p.needKey || p.cfg.KeyDue(p.sinceKey)
}

// Process consumes the next stereo pair of the stream, deciding key/non-key
// by the propagation-window schedule.
func (p *Pipeline) Process(left, right *imgproc.Image) Result {
	if p.NextIsKey() {
		if p.matcher == nil {
			panic("core: key frame reached with no KeyMatcher; use ProcessKey")
		}
		disp := p.matcher.Match(left, right)
		return p.commitKey(left, right, disp, p.matcher.MACs(left.W, left.H))
	}
	return p.processNonKey(left, right)
}

// ProcessKey consumes the next pair as a key frame with an externally
// computed disparity map (e.g. the DNN oracle), charging cost macs.
func (p *Pipeline) ProcessKey(left, right, disp *imgproc.Image, macs int64) Result {
	return p.commitKey(left, right, disp, macs)
}

// ProcessNonKey consumes the next pair as a non-key frame regardless of the
// schedule. It panics if no key frame has been processed yet.
func (p *Pipeline) ProcessNonKey(left, right *imgproc.Image) Result {
	if p.prevDisp == nil {
		panic("core: non-key frame before any key frame")
	}
	return p.processNonKey(left, right)
}

// ProcessNonKeyWith consumes the next pair as a non-key frame using
// externally computed motion fields: fl must be the configured estimator's
// flow from the previous left frame to left, and fr likewise for the right
// stream. The streaming runtime (internal/pipeline) uses this to overlap
// frame t+1's flow estimation with frame t's refinement; the result is
// bit-identical to Process because the same estimator ran on the same
// inputs, just on another goroutine. It panics if no key frame has been
// processed yet.
func (p *Pipeline) ProcessNonKeyWith(left, right *imgproc.Image, fl, fr flow.Field) Result {
	if p.prevDisp == nil {
		panic("core: non-key frame before any key frame")
	}
	return p.propagateRefine(left, right, fl, fr)
}

func (p *Pipeline) commitKey(left, right, disp *imgproc.Image, macs int64) Result {
	p.prevLeft, p.prevRight, p.prevDisp = left, right, disp
	p.frameIdx++
	p.sinceKey = 1
	p.needKey = false
	return Result{Disparity: disp, IsKey: true, MACs: macs}
}

func (p *Pipeline) processNonKey(left, right *imgproc.Image) Result {
	// Step 3: propagate correspondences with per-view motion estimation.
	me := p.cfg.me()
	fl := me.Estimate(p.prevLeft, left)
	fr := me.Estimate(p.prevRight, right)
	return p.propagateRefine(left, right, fl, fr)
}

// propagateRefine runs ISM steps 2–4 on a non-key frame given the two
// motion fields, and commits the frame. It takes ownership of fl and fr.
func (p *Pipeline) propagateRefine(left, right *imgproc.Image, fl, fr flow.Field) Result {
	// Steps 2+3: reconstruct pairs from the previous disparity map and move
	// both endpoints by their motion vectors.
	prop := propagate(p.prevDisp, fl, fr)

	// Step 4: refine with the guided 1-D correspondence search.
	disp := stereo.Refine(left, right, prop, p.cfg.RefineR, p.cfg.BM)
	imgproc.PutImage(prop)
	if p.cfg.Postprocess {
		med := stereo.MedianFilter(disp, 1)
		imgproc.PutImage(disp)
		disp = med
	}

	motion := meanMotion(fl)
	flow.PutField(fl)
	flow.PutField(fr)
	if a := p.cfg.Adaptive; a != nil && motion > a.MotionThresholdPx {
		p.needKey = true
	}

	macs := p.NonKeyMACs(left.W, left.H)
	p.prevLeft, p.prevRight, p.prevDisp = left, right, disp
	p.frameIdx++
	p.sinceKey++
	return Result{Disparity: disp, IsKey: false, MACs: macs, MeanMotionPx: motion}
}

// meanMotion returns the mean per-pixel motion magnitude (L1) of a field.
func meanMotion(f flow.Field) float64 {
	var s float64
	for i := range f.U.Pix {
		u, v := float64(f.U.Pix[i]), float64(f.V.Pix[i])
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		s += u + v
	}
	return s / float64(len(f.U.Pix))
}

// propagate applies the correspondence invariant: each pair
// (PL=(x,y), PR=(x-D,y)) from the previous frame moves to
// (PL+ΔL, PR+ΔR), so the new disparity at PL+ΔL is D + ΔL.u - ΔR.u.
// Collisions keep the nearest surface (largest disparity); holes left by
// disocclusion are filled from valid neighbours.
func propagate(prevDisp *imgproc.Image, fl, fr flow.Field) *imgproc.Image {
	w, h := prevDisp.W, prevDisp.H
	out := imgproc.GetImage(w, h)
	for i := range out.Pix {
		out.Pix[i] = -1
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			d := float64(prevDisp.At(x, y))
			if d < 0 {
				continue
			}
			ul := float64(fl.U.At(x, y))
			vl := float64(fl.V.At(x, y))
			xr := int(math.Round(float64(x) - d))
			if xr < 0 {
				xr = 0
			}
			ur := float64(fr.U.At(xr, y))

			nx := int(math.Round(float64(x) + ul))
			ny := int(math.Round(float64(y) + vl))
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			nd := float32(d + ul - ur)
			if nd < 0 {
				nd = 0
			}
			if nd > out.At(nx, ny) {
				out.Set(nx, ny, nd)
			}
		}
	}
	fillHoles(out)
	return out
}

// fillHoles replaces negative entries with the average of valid neighbours,
// iterating until the map is dense (disocclusions are thin, so a few passes
// suffice; any pathological remainder falls back to 0 = far background).
func fillHoles(d *imgproc.Image) {
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		holes := 0
		for y := 0; y < d.H; y++ {
			for x := 0; x < d.W; x++ {
				if d.At(x, y) >= 0 {
					continue
				}
				var s float32
				var n int
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if v := d.At(x+dx, y+dy); v >= 0 {
							s += v
							n++
						}
					}
				}
				if n > 0 {
					d.Set(x, y, s/float32(n))
				} else {
					holes++
				}
			}
		}
		if holes == 0 {
			break
		}
	}
	for i, v := range d.Pix {
		if v < 0 {
			d.Pix[i] = 0
		}
	}
}

// NonKeyMACs returns the arithmetic cost charged to one non-key frame:
// two dense optical-flow estimations (left and right streams) at the
// configured scale, the guided block-matching refinement, and the pointwise
// propagation work (paper Sec. 3.3: ~87 MOps for a qHD frame).
func (p *Pipeline) NonKeyMACs(w, h int) int64 {
	array, scalar := p.NonKeyBreakdown(w, h)
	return array + scalar
}

// NonKeyBreakdown splits the non-key cost by execution unit, following the
// ASV hardware mapping (Fig. 8): convolution-like work (Gaussian filters,
// polynomial expansion, SAD search) runs on the systolic array; "Compute
// Flow", "Matrix Update" and the correspondence propagation are pointwise
// and run on the scalar unit.
func (p *Pipeline) NonKeyBreakdown(w, h int) (arrayMACs, scalarOps int64) {
	scalarOps = int64(w) * int64(h) * 8 // reconstruct + propagate
	switch me := p.cfg.me().(type) {
	case FarnebackME:
		s := max(me.Scale, 1)
		conv, point := flow.FarnebackOpsSplit(w/s, h/s, me.Opt)
		arrayMACs += 2 * conv
		scalarOps += 2 * point
	default:
		// Block matching (and any SAD-structured estimator) runs entirely
		// on the array.
		arrayMACs += 2 * me.MACs(w, h)
	}
	arrayMACs += stereo.RefineMACs(w, h, p.cfg.RefineR, p.cfg.BM)
	if p.cfg.Postprocess {
		scalarOps += int64(w) * int64(h) * 12 // 3x3 median network
	}
	return arrayMACs, scalarOps
}
