// Package asv is a from-scratch reproduction of "ASV: Accelerated Stereo
// Vision System" (Feng, Whatmough, Zhu — MICRO 2019): a software/hardware
// co-designed stereo vision system that combines
//
//   - ISM, invariant-based stereo matching, which runs an expensive
//     high-accuracy matcher only on key frames and propagates its
//     correspondences to the frames in between with dense optical flow and
//     a cheap guided block-matching search (paper Sec. 3);
//
//   - a deconvolution-to-convolution transformation that removes the
//     sparsity-induced waste of stride-2 deconvolutions without hardware
//     changes (Sec. 4.1); and
//
//   - a constrained-optimization dataflow scheduler that exploits the
//     inter-layer activation reuse (ILAR) the transformation exposes
//     (Sec. 4.2);
//
// together with the analytic accelerator models (systolic array, Eyeriss-
// class spatial array, mobile GPU, GANNX-class deconvolution accelerator)
// used to reproduce every figure of the paper's evaluation. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
//
// The functional algorithms (stereo matching, optical flow, the tensor
// operators and the transformation) are real implementations verified by
// tests; the performance and energy numbers come from the analytic models,
// exactly as the paper's own evaluation is simulator-based.
package asv

import (
	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// Image is a single-channel float32 raster, the pixel container used
// throughout the library.
type Image = imgproc.Image

// NewImage returns a zero-filled w×h image.
func NewImage(w, h int) *Image { return imgproc.NewImage(w, h) }

// ISM pipeline (the paper's primary contribution).

// Pipeline is the stateful ISM engine; create one per stereo stream with
// NewPipeline and feed frames in order.
type Pipeline = core.Pipeline

// PipelineConfig tunes ISM (propagation window, flow options, guided-search
// radius).
type PipelineConfig = core.Config

// Result is one processed stereo pair.
type FrameResult = core.Result

// KeyMatcher produces disparity maps on key frames.
type KeyMatcher = core.KeyMatcher

// SGMKeyMatcher adapts semi-global matching as the key-frame matcher.
type SGMKeyMatcher = core.SGMMatcher

// BMKeyMatcher adapts full-search block matching as the key-frame matcher.
type BMKeyMatcher = core.BMMatcher

// DefaultPipelineConfig returns the evaluation configuration: PW-4,
// half-resolution Farneback flow, ±3 guided search.
func DefaultPipelineConfig() PipelineConfig { return core.DefaultConfig() }

// NewPipeline returns an ISM pipeline using matcher on key frames.
func NewPipeline(matcher KeyMatcher, cfg PipelineConfig) *Pipeline {
	return core.New(matcher, cfg)
}

// Classic stereo matching.

// Camera models a stereo rig for triangulation.
type Camera = stereo.Camera

// Bumblebee2 returns the industry-standard rig of the paper's Fig. 4.
func Bumblebee2() Camera { return stereo.Bumblebee2() }

// BMOptions configures SAD block matching.
type BMOptions = stereo.BMOptions

// SGMOptions configures semi-global matching.
type SGMOptions = stereo.SGMOptions

// DefaultBMOptions returns the evaluation block-matching configuration.
func DefaultBMOptions() BMOptions { return stereo.DefaultBMOptions() }

// DefaultSGMOptions returns the evaluation SGM configuration.
func DefaultSGMOptions() SGMOptions { return stereo.DefaultSGMOptions() }

// BlockMatch computes a disparity map by full-search SAD block matching.
func BlockMatch(left, right *Image, opt BMOptions) *Image {
	return stereo.Match(left, right, opt)
}

// SGM computes a disparity map by semi-global matching.
func SGM(left, right *Image, opt SGMOptions) *Image {
	return stereo.SGM(left, right, opt)
}

// GuidedRefine performs ISM's ±searchR guided correspondence search around
// an initial disparity estimate.
func GuidedRefine(left, right, init *Image, searchR int, opt BMOptions) *Image {
	return stereo.Refine(left, right, init, searchR, opt)
}

// ThreePixelError returns the percentage of pixels whose disparity is more
// than three pixels off ground truth (the paper's accuracy metric).
func ThreePixelError(est, gt *Image) float64 { return stereo.ThreePixelError(est, gt) }

// MeanAbsDisparityError returns the mean absolute disparity error over
// valid ground-truth pixels.
func MeanAbsDisparityError(est, gt *Image) float64 { return stereo.MeanAbsError(est, gt) }

// Dense optical flow.

// FlowField is a dense per-pixel motion field.
type FlowField = flow.Field

// FlowOptions configures the Farneback estimator.
type FlowOptions = flow.Options

// DefaultFlowOptions returns the evaluation flow configuration.
func DefaultFlowOptions() FlowOptions { return flow.DefaultOptions() }

// Farneback estimates dense motion from prev to next (the paper's
// motion-estimation choice, Sec. 3.3).
func Farneback(prev, next *Image, opt FlowOptions) FlowField {
	return flow.Farneback(prev, next, opt)
}

// Adaptive key-frame control (extension; paper Sec. 5.2 notes feasibility).

// AdaptiveKeyConfig tunes the motion-triggered key-frame controller.
type AdaptiveKeyConfig = core.AdaptiveConfig

// DefaultAdaptiveKeyConfig returns the evaluated controller settings.
func DefaultAdaptiveKeyConfig() AdaptiveKeyConfig { return core.DefaultAdaptiveConfig() }

// Pluggable motion estimation (Sec. 3.3 design-decision ablation).

// BlockMotion is block-matching motion estimation (per-block vectors).
type BlockMotion = core.BlockME

// CVFOptions configures cost-volume-filtering stereo matching.
type CVFOptions = stereo.CVFOptions

// DefaultCVFOptions returns the ELAS-class configuration of Fig. 1.
func DefaultCVFOptions() CVFOptions { return stereo.DefaultCVFOptions() }

// CostVolumeFilter computes disparity by filtered-cost-volume WTA, the
// third classic family on the Fig. 1 frontier.
func CostVolumeFilter(left, right *Image, opt CVFOptions) *Image {
	return stereo.CostVolumeFilter(left, right, opt)
}

// Image file I/O.

// SavePGM writes a display image (values in [0,1]) as 16-bit PGM.
func SavePGM(path string, im *Image) error { return imgproc.SavePGM(path, im) }

// LoadPGM reads an 8- or 16-bit PGM.
func LoadPGM(path string) (*Image, error) { return imgproc.LoadPGM(path) }

// SavePFM writes a disparity map (raw float32) as PFM, the format KITTI
// and Middlebury use for ground truth.
func SavePFM(path string, im *Image) error { return imgproc.SavePFM(path, im) }

// LoadPFM reads a single-channel PFM.
func LoadPFM(path string) (*Image, error) { return imgproc.LoadPFM(path) }
