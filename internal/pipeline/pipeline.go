// Package pipeline is ISM's frame executor. ProcessFrame runs one frame in
// two halves: a precompute half (the key-frame match, or optical flow on
// the left and right video streams in parallel) and a commit half
// (correspondence propagation and guided refinement, or the key commit).
// Stream runs the same two halves as a bounded-channel pipeline, so frame
// t+1's flow estimation overlaps frame t's refinement and key-frame
// matching runs ahead of the stream instead of stalling it.
//
// Both paths record the same stages: "keymatch" or "flow" for the
// precompute half, "propagate+refine" for a non-key commit, and "frame" for
// the frame's own compute time, precompute plus commit. In Stream, "frame"
// excludes the time a precomputed frame waits for the committer.
//
// The decomposition exploits ISM's dependency structure (paper Sec. 3):
//
//   - flow estimation for frame t needs only the frames t-1 and t, never a
//     disparity result, so it can run arbitrarily far ahead on worker
//     goroutines (left and right streams in parallel);
//   - key-frame matching needs only frame t itself;
//   - only propagation + refinement consume the previous frame's disparity,
//     so only that stage is serialized, on a single committer goroutine that
//     retires frames strictly in stream order.
//
// Because every stage runs the exact same kernels on the exact same inputs
// as the serial path and the committer retires frames in order, the output
// is bit-identical to core.Pipeline.Process — verified by the golden test —
// while throughput scales with the worker pool. See DESIGN.md
// ("Stage-boundary determinism").
package pipeline

import (
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/metrics"
	"asv/internal/par"
)

// Frame is one stereo pair of the input stream. Frames are owned by the
// runtime once sent: the producer must not mutate the images afterwards.
type Frame struct {
	Left, Right *imgproc.Image
}

// Result pairs a core.Result with the index of the frame that produced it.
// Results arrive strictly in frame order.
type Result struct {
	Index int
	core.Result
}

// Options tunes the streaming runtime. The zero value selects sensible
// defaults.
type Options struct {
	// Workers is the number of precompute goroutines running flow
	// estimation and key-frame matching (default par.Workers()).
	Workers int
	// Depth bounds how many frames may be in flight beyond the committer
	// (default 2×Workers). Larger values smooth over stage-latency jitter at
	// the price of buffered frames.
	Depth int
	// Metrics, when non-nil, receives per-stage frame counters and latency
	// histograms under the stage names "flow", "keymatch",
	// "propagate+refine" and "frame" (the frame's compute time, precompute
	// plus commit, as in ProcessFrame).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = par.Workers()
	}
	if o.Depth < 1 {
		o.Depth = 2 * o.Workers
	}
	return o
}

// job is one frame's precomputable work.
type job struct {
	idx         int
	key         bool
	left, right *imgproc.Image
	// prevLeft/prevRight are the previous frame's images (non-key only).
	prevLeft, prevRight *imgproc.Image
}

// done is a frame whose precompute half has finished, waiting for in-order
// commit.
type done struct {
	idx         int
	left, right *imgproc.Image
	pre         precomputed
}

// Stream processes the stereo stream read from frames through a concurrent
// ISM pipeline and returns the channel of in-order results. The channel is
// closed after the last frame's result. matcher must not be nil, and both
// matcher and the configured motion estimator must tolerate concurrent
// calls (all built-in implementations do).
//
// The output is bit-identical to feeding the frames one by one through
// core.Pipeline.Process. Configurations with a motion-adaptive key-frame
// schedule (cfg.Adaptive != nil) decide key frames from the previous
// frame's result, which forbids precomputation; they transparently fall
// back to serial in-order processing on a single goroutine.
func Stream(matcher core.KeyMatcher, cfg core.Config, frames <-chan Frame, opt Options) <-chan Result {
	if matcher == nil {
		panic("pipeline: nil KeyMatcher")
	}
	opt = opt.withDefaults()
	out := make(chan Result, opt.Depth)
	p := core.New(matcher, cfg) // validates cfg

	if cfg.Adaptive != nil {
		go streamSerial(p, matcher, frames, out, opt)
		return out
	}

	jobs := make(chan job, opt.Depth)
	dones := make(chan done, opt.Depth)

	// Dispatcher: assign indices, pair each frame with its predecessor and
	// mark key frames by core's key-frame rule, applied to the frames
	// since the last key (no adaptive trigger can fire on this path).
	go func() {
		defer close(jobs)
		idx, sinceKey := 0, 0
		var prev Frame
		for fr := range frames {
			j := job{idx: idx, left: fr.Left, right: fr.Right}
			if prev.Left == nil || cfg.KeyDue(sinceKey) {
				j.key = true
				sinceKey = 1
			} else {
				j.prevLeft, j.prevRight = prev.Left, prev.Right
				sinceKey++
			}
			prev = fr
			idx++
			jobs <- j
		}
	}()

	// Precompute workers: ProcessFrame's precompute half, ahead of the
	// committer.
	var wg sync.WaitGroup
	me := cfg.MotionSource()
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				pre := precompute(matcher, me, j.key, j.prevLeft, j.prevRight, j.left, j.right, opt.Metrics)
				dones <- done{idx: j.idx, left: j.left, right: j.right, pre: pre}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(dones)
	}()

	// Committer: retire frames strictly in stream order; only this stage
	// touches the disparity recurrence.
	go func() {
		defer close(out)
		pending := make(map[int]done, opt.Depth)
		next := 0
		for d := range dones {
			pending[d.idx] = d
			for {
				d, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				res := commit(p, d.left, d.right, d.pre, opt.Metrics)
				out <- Result{Index: next, Result: res}
				next++
			}
		}
	}()
	return out
}

// streamSerial is the fallback for adaptive schedules: in-order processing
// via ProcessFrame, so the left/right motion fields of each non-key frame
// are still estimated concurrently even though frames cannot be precomputed
// ahead of the key-frame decision.
func streamSerial(p *core.Pipeline, matcher core.KeyMatcher, frames <-chan Frame, out chan<- Result, opt Options) {
	defer close(out)
	idx := 0
	for fr := range frames {
		res := ProcessFrame(p, matcher, fr.Left, fr.Right, opt.Metrics)
		out <- Result{Index: idx, Result: res}
		idx++
	}
}

func observe(r *metrics.Registry, stage string, d time.Duration) {
	if r != nil {
		r.Stage(stage).Observe(d)
	}
}

// Collect drains a result channel into a slice, in order. It is a
// convenience for batch callers and tests.
func Collect(results <-chan Result) []Result {
	var out []Result
	for r := range results {
		out = append(out, r)
	}
	return out
}

// StreamFrames feeds a pre-materialized frame slice through Stream — the
// batch entry point used by the benchmarks and cmds.
func StreamFrames(matcher core.KeyMatcher, cfg core.Config, frames []Frame, opt Options) []Result {
	in := make(chan Frame)
	go func() {
		defer close(in)
		for _, f := range frames {
			in <- f
		}
	}()
	return Collect(Stream(matcher, cfg, in, opt))
}
