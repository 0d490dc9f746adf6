package pipeline

import (
	"testing"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/metrics"
	"asv/internal/stereo"
)

// testSequence generates a deterministic stereo video for the golden tests.
func testSequence(t testing.TB, frames int) []Frame {
	t.Helper()
	seq := dataset.Generate(dataset.SceneConfig{
		W: 96, H: 64, FrameCount: frames, Layers: 2,
		MinDisp: 2, MaxDisp: 14, MaxVel: 1.2, MaxDispVel: 0.2,
		Ground: true, Noise: 0.01, Seed: 321,
	})
	out := make([]Frame, len(seq.Frames))
	for i, fr := range seq.Frames {
		out[i] = Frame{Left: fr.Left, Right: fr.Right}
	}
	return out
}

func testMatcher() core.KeyMatcher {
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 20
	return core.SGMMatcher{Opt: opt}
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PW = 3
	return cfg
}

// serialResults runs the reference serial path.
func serialResults(matcher core.KeyMatcher, cfg core.Config, frames []Frame) []core.Result {
	p := core.New(matcher, cfg)
	out := make([]core.Result, len(frames))
	for i, fr := range frames {
		out[i] = p.Process(fr.Left, fr.Right)
	}
	return out
}

// assertIdentical fails unless the streamed results match the serial results
// bit for bit.
func assertIdentical(t *testing.T, serial []core.Result, streamed []Result) {
	t.Helper()
	if len(streamed) != len(serial) {
		t.Fatalf("got %d results, want %d", len(streamed), len(serial))
	}
	for i, got := range streamed {
		want := serial[i]
		if got.Index != i {
			t.Fatalf("result %d carries index %d", i, got.Index)
		}
		if got.IsKey != want.IsKey {
			t.Fatalf("frame %d: IsKey=%v, serial %v", i, got.IsKey, want.IsKey)
		}
		if got.MACs != want.MACs {
			t.Fatalf("frame %d: MACs=%d, serial %d", i, got.MACs, want.MACs)
		}
		if got.MeanMotionPx != want.MeanMotionPx {
			t.Fatalf("frame %d: MeanMotionPx=%v, serial %v", i, got.MeanMotionPx, want.MeanMotionPx)
		}
		if got.Disparity.W != want.Disparity.W || got.Disparity.H != want.Disparity.H {
			t.Fatalf("frame %d: size mismatch", i)
		}
		for px := range got.Disparity.Pix {
			if got.Disparity.Pix[px] != want.Disparity.Pix[px] {
				t.Fatalf("frame %d: pixel %d differs: %v vs %v — pipelined output is not bit-identical",
					i, px, got.Disparity.Pix[px], want.Disparity.Pix[px])
			}
		}
	}
}

// TestGoldenStreamMatchesSerialBitExact is the pipeline's central guarantee:
// the concurrent runtime must reproduce the serial ISM path bit for bit.
func TestGoldenStreamMatchesSerialBitExact(t *testing.T) {
	frames := testSequence(t, 10)
	serial := serialResults(testMatcher(), testConfig(), frames)
	for _, workers := range []int{1, 2, 4} {
		streamed := StreamFrames(testMatcher(), testConfig(), frames, Options{Workers: workers})
		assertIdentical(t, serial, streamed)
	}
}

func TestStreamDepthOneStillCorrect(t *testing.T) {
	frames := testSequence(t, 7)
	serial := serialResults(testMatcher(), testConfig(), frames)
	streamed := StreamFrames(testMatcher(), testConfig(), frames, Options{Workers: 3, Depth: 1})
	assertIdentical(t, serial, streamed)
}

func TestStreamEveryFrameKey(t *testing.T) {
	frames := testSequence(t, 5)
	cfg := testConfig()
	cfg.PW = 1
	serial := serialResults(testMatcher(), cfg, frames)
	streamed := StreamFrames(testMatcher(), cfg, frames, Options{Workers: 4})
	assertIdentical(t, serial, streamed)
	for i, r := range streamed {
		if !r.IsKey {
			t.Fatalf("PW=1: frame %d not a key frame", i)
		}
	}
}

func TestStreamAdaptiveFallsBackToSerial(t *testing.T) {
	frames := testSequence(t, 8)
	cfg := testConfig()
	a := core.DefaultAdaptiveConfig()
	cfg.Adaptive = &a
	serial := serialResults(testMatcher(), cfg, frames)
	streamed := StreamFrames(testMatcher(), cfg, frames, Options{Workers: 4})
	assertIdentical(t, serial, streamed)
}

func TestStreamEmptyInput(t *testing.T) {
	in := make(chan Frame)
	close(in)
	out := Stream(testMatcher(), testConfig(), in, Options{})
	if got := Collect(out); len(got) != 0 {
		t.Fatalf("empty stream produced %d results", len(got))
	}
}

func TestStreamMetricsStages(t *testing.T) {
	frames := testSequence(t, 9) // PW=3 -> keys at 0,3,6: 3 key, 6 non-key
	reg := metrics.NewRegistry()
	StreamFrames(testMatcher(), testConfig(), frames, Options{Workers: 2, Metrics: reg})
	if got := reg.Stage("frame").Count(); got != 9 {
		t.Fatalf("frame count = %d, want 9", got)
	}
	if got := reg.Stage("keymatch").Count(); got != 3 {
		t.Fatalf("keymatch count = %d, want 3", got)
	}
	if got := reg.Stage("flow").Count(); got != 6 {
		t.Fatalf("flow count = %d, want 6", got)
	}
	if got := reg.Stage("propagate+refine").Count(); got != 6 {
		t.Fatalf("propagate+refine count = %d, want 6", got)
	}
	assertFrameCoversStages(t, reg)
}

// assertFrameCoversStages checks that "frame" is each frame's compute time,
// precompute plus commit: its total covers the keymatch, flow and
// propagate+refine totals.
func assertFrameCoversStages(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	parts := reg.Stage("keymatch").Total() + reg.Stage("flow").Total() + reg.Stage("propagate+refine").Total()
	if frame := reg.Stage("frame").Total(); frame < parts {
		t.Fatalf("frame total %v < keymatch+flow+propagate+refine %v", frame, parts)
	}
}

// ProcessFrame records the same stages as Stream, with the same meaning.
func TestProcessFrameMetricsStages(t *testing.T) {
	frames := testSequence(t, 6) // PW=3 -> keys at 0,3
	reg := metrics.NewRegistry()
	p := core.New(testMatcher(), testConfig())
	for _, fr := range frames {
		ProcessFrame(p, testMatcher(), fr.Left, fr.Right, reg)
	}
	for stage, want := range map[string]int64{"frame": 6, "keymatch": 2, "flow": 4, "propagate+refine": 4} {
		if got := reg.Stage(stage).Count(); got != want {
			t.Fatalf("%s count = %d, want %d", stage, got, want)
		}
	}
	assertFrameCoversStages(t, reg)
}

func TestStreamResultsArriveInOrder(t *testing.T) {
	frames := testSequence(t, 12)
	in := make(chan Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	last := -1
	for r := range Stream(testMatcher(), testConfig(), in, Options{Workers: 4}) {
		if r.Index != last+1 {
			t.Fatalf("out-of-order result: %d after %d", r.Index, last)
		}
		last = r.Index
	}
	if last != len(frames)-1 {
		t.Fatalf("stream ended at index %d, want %d", last, len(frames)-1)
	}
}

func TestStreamNilMatcherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stream accepted a nil matcher")
		}
	}()
	Stream(nil, testConfig(), make(chan Frame), Options{})
}
