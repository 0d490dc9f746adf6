package asv

import (
	"asv/internal/backend"
	"asv/internal/backend/backends"
	"asv/internal/dataset"
	"asv/internal/deconv"
	"asv/internal/grid"
	"asv/internal/hw"
	"asv/internal/nn"
	"asv/internal/tensor"
)

// Hardware modeling and accelerator simulation.

// HWConfig is an accelerator resource budget (PE array, buffer, bandwidth).
type HWConfig = hw.Config

// EnergyModel holds the per-event energy constants.
type EnergyModel = hw.Energy

// DefaultHW returns the paper's evaluation accelerator resources
// (24×24 PEs @ 1 GHz, 1.5 MB SRAM, 4×LPDDR3-1600).
func DefaultHW() HWConfig { return hw.Default() }

// DefaultEnergyModel returns the 16 nm energy calibration.
func DefaultEnergyModel() EnergyModel { return hw.DefaultEnergy() }

// Accelerator backends. Every hardware model — the ASV systolic array, the
// Eyeriss-class spatial array, the mobile GPU roofline and the GANNX-class
// deconvolution accelerator — implements the same Backend interface and is
// selected by registry name ("systolic", "eyeriss", "gpu", "gannx"), not by
// import.

// Backend is one accelerator model: self-describing (name, summary,
// capabilities) and runnable on any network.
type Backend = backend.Backend

// RunOptions carries the unified RunNetwork knobs: scheduling policy, ISM
// propagation window, and the non-key cost the window amortizes.
type RunOptions = backend.RunOptions

// Policy selects the scheduling/optimization level.
type Policy = backend.Policy

// Scheduling policies, in increasing order of ASV optimization.
const (
	PolicyBaseline = backend.PolicyBaseline // naive deconv + static partition
	PolicyDCT      = backend.PolicyDCT      // + deconv transformation
	PolicyConvR    = backend.PolicyConvR    // + per-layer reuse optimizer
	PolicyILAR     = backend.PolicyILAR     // + inter-layer activation reuse
)

// ParsePolicy resolves a policy name ("baseline", "dct", "convr", "ilar").
func ParsePolicy(s string) (Policy, error) { return backend.ParsePolicy(s) }

// Report is a simulated execution cost breakdown.
type Report = backend.Report

// NonKeyCost is the per-frame demand of ISM's non-key work.
type NonKeyCost = backend.NonKeyCost

// Backends returns every registered accelerator model, sorted by name.
func Backends() []Backend { return backend.List() }

// BackendNames returns the sorted registry names.
func BackendNames() []string { return backend.Names() }

// BackendByName looks a backend up by registry name; the error lists the
// available names.
func BackendByName(name string) (Backend, error) { return backend.Get(name) }

// RunOnBackend validates opts against b's capabilities and executes the
// network, returning a typed error (backend.UnsupportedError /
// backend.OptionsError) instead of a silently wrong report when the backend
// cannot honor the options.
func RunOnBackend(b Backend, n *Network, opts RunOptions) (Report, error) {
	return backend.Run(b, n, opts)
}

// DefaultNonKeyCost returns the per-frame non-key demand of the default ISM
// pipeline at qHD — what RunOptions.NonKey should carry for PW > 1 unless a
// custom pipeline is being modeled.
func DefaultNonKeyCost() NonKeyCost { return backends.DefaultNonKey() }

// NewAccelerator returns an ASV systolic-array backend with the given
// resources (design-space sweeps).
func NewAccelerator(cfg HWConfig, en EnergyModel) Backend {
	return backends.NewSystolic(cfg, en)
}

// DefaultAccelerator returns the paper's evaluation accelerator (the
// registered "systolic" backend).
func DefaultAccelerator() Backend { return mustBackend("systolic") }

// DefaultEyeriss returns the Fig. 13 Eyeriss configuration (same PEs,
// buffer and bandwidth as the ASV accelerator).
func DefaultEyeriss() Backend { return mustBackend("eyeriss") }

// JetsonTX2 returns the paper's GPU baseline.
func JetsonTX2() Backend { return mustBackend("gpu") }

// DefaultGANNX returns the Fig. 14 GANNX configuration.
func DefaultGANNX() Backend { return mustBackend("gannx") }

// mustBackend resolves a built-in registry name; the backends package
// registers all four in init, so a miss is an internal wiring bug.
func mustBackend(name string) Backend {
	b, err := backend.Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// HWOverhead reports the area/power cost of the ISM hardware extensions
// (paper Sec. 7.1).
type HWOverhead = hw.Overhead

// ComputeHWOverhead evaluates the extension overheads for an nPEs array.
func ComputeHWOverhead(nPEs int) HWOverhead { return hw.ComputeOverhead(nPEs) }

// Networks.

// Network is the layer-level IR of a DNN.
type Network = nn.Network

// Layer is one (de)convolution in the IR.
type Layer = nn.Layer

// StereoDNNs returns the four stereo networks of the evaluation (FlowNetC,
// DispNet, GC-Net, PSMNet) at the given input resolution.
func StereoDNNs(h, w int) []*Network { return nn.StereoZoo(h, w) }

// GANs returns the six generators of the Sec. 7.6 comparison.
func GANs() []*Network { return nn.GANZoo() }

// QHD is the paper's evaluation resolution (960×540).
const (
	QHDW = nn.QHDW
	QHDH = nn.QHDH
)

// Deconvolution transformation.

// Tensor is a dense float32 tensor (NCHW / NCDHW layouts).
type Tensor = tensor.Tensor

// NewTensor returns a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Deconv2D is the reference (sparse) stride-s deconvolution of in [C,H,W]
// with w [F,C,KH,KW] and upsampled-border padding pad.
func Deconv2D(in, w *Tensor, stride, pad int) *Tensor {
	return tensor.Deconv2D(in, w, stride, pad)
}

// TransformedDeconv2D executes the same stride-2 deconvolution by ASV's
// dense sub-convolution decomposition; the result is identical to Deconv2D
// with stride 2.
func TransformedDeconv2D(in, w *Tensor, pad int) *Tensor {
	return deconv.Transformed2D(in, w, pad)
}

// DecomposeKernel2D splits a deconvolution kernel [F,C,KH,KW] into the four
// sub-kernels of the transformation (nil where a sub-kernel is empty).
func DecomposeKernel2D(w *Tensor) [4]*Tensor { return deconv.Decompose2D(w) }

// EffectiveMACs returns a layer's MAC count after the transformation (only
// real-data multiplications remain).
func EffectiveMACs(l Layer) int64 { return deconv.EffectiveMACs(l) }

// Datasets.

// SceneConfig parameterizes the procedural stereo-video generator.
type SceneConfig = dataset.SceneConfig

// StereoSequence is a generated stereo video with ground truth.
type StereoSequence = dataset.Sequence

// GenerateSequence renders a stereo video from the configuration.
func GenerateSequence(cfg SceneConfig) *StereoSequence { return dataset.Generate(cfg) }

// SceneFlowLike returns the 26-sequence SceneFlow-style benchmark configs.
func SceneFlowLike(w, h, frames int, seed int64) []SceneConfig {
	return dataset.SceneFlowLike(w, h, frames, seed)
}

// KITTILike returns the 200-pair KITTI-style benchmark configs.
func KITTILike(w, h, pairs int, seed int64) []SceneConfig {
	return dataset.KITTILike(w, h, pairs, seed)
}

// Functional hardware simulation and fixed-point arithmetic.

// SystolicGrid is the cycle-stepped weight-stationary PE array simulator;
// it executes convolutions functionally (bit-equivalent to the reference
// operators) while counting cycles and MACs.
type SystolicGrid = grid.Grid

// NewSystolicGrid returns an idle rows×cols array.
func NewSystolicGrid(rows, cols int) *SystolicGrid { return grid.NewGrid(rows, cols) }

// FixedTensor is a 16-bit fixed-point tensor, the PE datapath format.
type FixedTensor = tensor.Fixed

// Quantize converts a tensor to 16-bit fixed point with the given
// fractional bits (saturating).
func Quantize(t *Tensor, fracBits uint) *FixedTensor { return tensor.Quantize(t, fracBits) }

// FixedConv2D convolves in 16-bit fixed point with wide accumulation, as
// the PE array does, returning the dequantized result.
func FixedConv2D(in, w *FixedTensor, stride, pad int) *Tensor {
	return tensor.FixedConv2D(in, w, stride, pad)
}
