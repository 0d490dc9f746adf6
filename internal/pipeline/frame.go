package pipeline

import (
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
	"asv/internal/metrics"
)

// ProcessFrame runs one stereo pair through p: the precompute half (the key
// match, or the left and right motion fields estimated concurrently, since
// they are independent by construction), then the commit half (ProcessKey
// or ProcessNonKeyWith). p.NextIsKey decides key frames, so it works for
// every schedule, adaptive ones included; matcher must not be nil when the
// schedule selects a key frame. Stage latencies are recorded under the
// standard names — "keymatch", "flow", "propagate+refine" and "frame" —
// when m is non-nil.
//
// The result is bit-identical to p.Process(left, right): the same kernels
// run on the same inputs, only on more goroutines. Like every core.Pipeline
// entry point it must be called from one goroutine at a time per pipeline;
// the serving layer serializes calls per session.
func ProcessFrame(p *core.Pipeline, matcher core.KeyMatcher, left, right *imgproc.Image, m *metrics.Registry) core.Result {
	prevLeft, prevRight := p.PrevFrames()
	pre := precompute(matcher, p.Config().MotionSource(), p.NextIsKey(), prevLeft, prevRight, left, right, m)
	return commit(p, left, right, pre, m)
}

// precomputed is a frame's precompute half: everything that depends only on
// the frame and its predecessor, never on a committed disparity.
type precomputed struct {
	key    bool
	disp   *imgproc.Image // key frames: the matcher's disparity
	macs   int64          // key frames: the matcher's cost
	fl, fr flow.Field     // non-key frames: left and right motion fields
	took   time.Duration  // wall time of the precompute half
}

// precompute runs the key match on a key frame, or the left and right flows
// from the previous pair on two goroutines otherwise, recording the
// "keymatch" or "flow" stage.
func precompute(matcher core.KeyMatcher, me core.MotionEstimator, key bool, prevLeft, prevRight, left, right *imgproc.Image, m *metrics.Registry) precomputed {
	t0 := time.Now()
	pre := precomputed{key: key}
	if key {
		if matcher == nil {
			panic("pipeline: key frame reached with nil KeyMatcher")
		}
		pre.disp = matcher.Match(left, right)
		pre.macs = matcher.MACs(left.W, left.H)
		pre.took = time.Since(t0)
		observe(m, "keymatch", pre.took)
		return pre
	}
	var inner sync.WaitGroup
	inner.Add(1)
	go func() {
		defer inner.Done()
		pre.fr = me.Estimate(prevRight, right)
	}()
	pre.fl = me.Estimate(prevLeft, left)
	inner.Wait()
	pre.took = time.Since(t0)
	observe(m, "flow", pre.took)
	return pre
}

// commit retires a precomputed frame into p, recording "propagate+refine"
// on non-key frames and "frame" — the frame's own compute time, precompute
// plus commit — on every frame.
func commit(p *core.Pipeline, left, right *imgproc.Image, pre precomputed, m *metrics.Registry) core.Result {
	t0 := time.Now()
	var res core.Result
	if pre.key {
		res = p.ProcessKey(left, right, pre.disp, pre.macs)
	} else {
		res = p.ProcessNonKeyWith(left, right, pre.fl, pre.fr)
		observe(m, "propagate+refine", time.Since(t0))
	}
	observe(m, "frame", pre.took+time.Since(t0))
	return res
}
