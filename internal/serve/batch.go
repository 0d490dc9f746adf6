package serve

import (
	"fmt"
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/imgproc"
	"asv/internal/quality"
	"asv/internal/stereo"
)

// workItem is one admitted frame waiting for (or undergoing) processing.
// For preset sessions left/right are nil and the worker draws the next
// synthetic pair instead.
type workItem struct {
	sess        *session
	left, right *imgproc.Image
	enqueued    time.Time
	started     time.Time
	reply       chan frameReply
	// wantLeft asks the worker to capture the (rectified) left view in the
	// reply; cloud responses use it as the points' intensity channel.
	wantLeft bool
}

// frameReply is what the worker hands back to the blocked HTTP handler.
type frameReply struct {
	res       core.Result
	frame     int // per-session frame index (0-based)
	rung      int // ladder rung the frame was served at (0 = full fidelity)
	stats     stereo.DispStats
	queueWait time.Duration
	compute   time.Duration
	err       error
	// left is the rectified left view of this frame, captured only when the
	// work item asked for it (cloud intensity).
	left *imgproc.Image
}

// batcher is the dynamic micro-batcher between the admission queue and the
// worker pool. It coalesces queued frames across sessions into dispatch
// rounds of up to BatchSize frames — at most one frame per session per
// round, which is both the batching policy and the mechanism that keeps
// each session's ISM state machine strictly single-threaded and in order.
// A partially filled round is flushed after BatchWait so a lone client
// never waits for strangers.
//
// All batcher state is confined to the run goroutine; the only shared
// surfaces are the admit/done channels and the server's atomic counters.
type batcher struct {
	s *Server

	admit chan *workItem // bounded admission queue (handlers send, batcher receives)
	work  chan *workItem // dispatch to workers
	done  chan *session  // worker → batcher completion notices
	quit  chan struct{}  // closed by Close after admit is closed

	finished sync.WaitGroup // run + workers
}

func newBatcher(s *Server) *batcher {
	b := &batcher{
		s:     s,
		admit: make(chan *workItem, s.cfg.QueueDepth),
		work:  make(chan *workItem),
		done:  make(chan *session, s.cfg.Workers),
	}
	b.finished.Add(1 + s.cfg.Workers)
	go b.run()
	for w := 0; w < s.cfg.Workers; w++ {
		go b.worker()
	}
	return b
}

// run is the batcher goroutine. Invariants:
//   - pending[s] holds s's admitted frames in FIFO order;
//   - a session is in ready iff it has pending frames and none in flight;
//   - busy[s] marks an in-flight frame (at most one per session).
func (b *batcher) run() {
	defer b.finished.Done()
	defer close(b.work)

	pending := make(map[*session][]*workItem)
	busy := make(map[*session]bool)
	var ready []*session // FIFO across sessions

	var flushTimer *time.Timer
	var flushC <-chan time.Time
	stopTimer := func() {
		if flushTimer != nil {
			flushTimer.Stop()
			flushTimer, flushC = nil, nil
		}
	}

	admit := b.admit
	for {
		// Flush a round when it is full, or when the wait timer fired
		// (flushC is nil while nothing is ready).
		if len(ready) >= b.s.cfg.BatchSize {
			b.flush(&ready, pending, busy)
			stopTimer()
		}
		if len(ready) > 0 && flushC == nil {
			flushTimer = time.NewTimer(b.s.cfg.BatchWait)
			flushC = flushTimer.C
		}

		select {
		case it, ok := <-admit:
			if !ok {
				// Draining: no new work will arrive. Keep dispatching what
				// is queued until every session runs dry, then stop the
				// workers by closing b.work (via the deferred close).
				admit = nil
				if len(pending) == 0 && len(busy) == 0 {
					stopTimer()
					return
				}
				continue
			}
			q := pending[it.sess]
			pending[it.sess] = append(q, it)
			if !busy[it.sess] && len(q) == 0 {
				ready = append(ready, it.sess)
			}

		case <-flushC:
			flushTimer, flushC = nil, nil
			b.flush(&ready, pending, busy)

		case sess := <-b.done:
			delete(busy, sess)
			if len(pending[sess]) > 0 {
				ready = append(ready, sess)
			} else if admit == nil && len(pending) == 0 && len(busy) == 0 && len(ready) == 0 {
				stopTimer()
				return
			}
		}
	}
}

// flush dispatches one round: the head frame of up to BatchSize ready
// sessions. Rounds with more than one frame are the batching win — their
// frames run concurrently on the worker pool.
func (b *batcher) flush(ready *[]*session, pending map[*session][]*workItem, busy map[*session]bool) {
	n := len(*ready)
	if n == 0 {
		return
	}
	if n > b.s.cfg.BatchSize {
		n = b.s.cfg.BatchSize
	}
	round := (*ready)[:n]
	*ready = append([]*session(nil), (*ready)[n:]...)

	b.s.batches.Add(1)
	b.s.batchedFrames.Add(int64(n))
	for {
		cur := b.s.maxBatch.Load()
		if int64(n) <= cur || b.s.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}

	for _, sess := range round {
		q := pending[sess]
		it := q[0]
		if len(q) == 1 {
			delete(pending, sess)
		} else {
			pending[sess] = q[1:]
		}
		busy[sess] = true
		it.started = time.Now()
		// Dispatch without ever refusing completion notices: with fewer
		// workers than the round is wide, a plain send here deadlocks — every
		// worker blocks handing in b.done (capacity Workers) while flush
		// blocks handing out b.work. Draining b.done while waiting keeps the
		// workers' hand-in path clear no matter the worker/batch ratio.
	dispatch:
		for {
			select {
			case b.work <- it:
				break dispatch
			case finished := <-b.done:
				delete(busy, finished)
				if len(pending[finished]) > 0 {
					*ready = append(*ready, finished)
				}
			}
		}
	}
}

// worker executes dispatched frames. Each frame runs the full ISM step for
// its session — key-frame matching or concurrent L/R flow + propagation +
// refinement — via quality.Step and so pipeline.ProcessFrame, the executor
// the batch streaming runtime shares, observing the same metric stages.
func (b *batcher) worker() {
	defer b.finished.Done()
	for it := range b.work {
		b.process(it)
		b.done <- it.sess
	}
}

func (b *batcher) process(it *workItem) {
	defer it.sess.pendingFrames.Add(-1)
	defer b.s.inflight.Add(-1)
	rep := frameReply{queueWait: it.started.Sub(it.enqueued)}
	if b.s.cfg.Metrics != nil {
		b.s.cfg.Metrics.Stage("queue").Observe(rep.queueWait)
	}

	defer func() {
		// A panic in a kernel must not take the server down; it becomes a
		// 500 on this one request. The session's pipeline state is intact
		// because core commits state only after a frame fully succeeds.
		if r := recover(); r != nil {
			rep.err = fmt.Errorf("internal: frame processing panicked: %v", r)
			it.reply <- rep
		}
	}()

	checkpoint := b.runFrame(it, &rep)
	if rep.err != nil {
		it.reply <- rep
		return
	}
	// The checkpoint is encoded inside the run lock (consistent state),
	// written here outside it, and only then is the reply sent: when the
	// cadence is every frame, a client that has seen frame N's reply is
	// guaranteed the spill store holds frame N's state — the invariant the
	// chaos recovery path depends on.
	if checkpoint != nil {
		b.s.writeSnapshotFile(it.sess.id, checkpoint)
	}
	it.reply <- rep
}

// runFrame executes the ISM step under the session's run lock, which
// serializes the state mutation against snapshot encoding. Workers never
// contend on it (the batcher dispatches at most one frame per session), so
// in the steady state it is uncontended. The deferred unlock also covers
// kernel panics, which process turns into a 500. Returns the encoded
// checkpoint when one is due.
func (b *batcher) runFrame(it *workItem, rep *frameReply) (checkpoint []byte) {
	it.sess.runMu.Lock()
	defer it.sess.runMu.Unlock()

	left, right := it.left, it.right
	if left == nil {
		left, right = it.sess.preset.frame()
	}
	if err := it.sess.checkGeometry(left, right); err != nil {
		rep.err = badFrameError{err}
		return nil
	}
	// Calibrated sessions rectify every incoming pair before matching —
	// the same rectify.RectifyPair an offline pipeline would run, so the
	// served disparities are bit-identical to rectifying first and serving
	// the rectified pair. Already-rectified rigs (zero rotations) skip the
	// identity warp.
	if calib := it.sess.calib; calib != nil && !calib.Rectified() {
		tr := time.Now()
		left, right = calib.RectifyPair(left, right)
		if b.s.cfg.Metrics != nil {
			b.s.cfg.Metrics.Stage("rectify").Observe(time.Since(tr))
		}
	}
	if it.wantLeft {
		rep.left = left
	}

	// Rung choice (DESIGN.md §12). Gold sessions are pinned at rung 0, the
	// server's matcher with no degradation. Best-effort sessions ask the
	// controller for the cheapest rung predicted to meet their deadline at
	// the current queue depth. Both run through quality.Step, the executor
	// the offline pricer scores, so quality_ladder.json prices what is
	// served.
	rung := 0
	if it.sess.slo == quality.BestEffort {
		queued := int(b.s.inflight.Load()) - 1 // frames waiting behind this one
		rung, _ = b.s.ctl.Pick(queued, b.s.cfg.Workers, it.sess.deadlineMs)
	}
	r := b.s.ladder[rung]
	if r.OP.PyrLevel != it.sess.level {
		// The flow kernels require consecutive frames to agree in size, so
		// a cross-level rung switch restarts the temporal chain; the next
		// frame below recovers with a key frame at the new resolution.
		it.sess.pipe.Reset()
		it.sess.level = r.OP.PyrLevel
	}

	t0 := time.Now()
	res := quality.Step(it.sess.pipe, r, b.s.rungMatchers[rung], left, right, b.s.cfg.Metrics)
	rep.compute = time.Since(t0)
	rep.res = res
	rep.rung = rung
	rep.frame = int(it.sess.frames.Add(1)) - 1
	if res.IsKey {
		it.sess.keyFrames.Add(1)
	}
	rep.stats = stereo.DisparityStats(res.Disparity)
	it.sess.touch()

	// Every completed frame trains the controller's latency model for the
	// rung it ran at — gold traffic keeps rung 0 priced even when no
	// best-effort session is degraded.
	b.s.ctl.Observe(rung, float64(rep.compute)/1e6)
	b.s.rungServed[rung].Add(1)
	it.sess.lastRung.Store(int64(rung))
	if rung > 0 {
		b.s.degradedTotal.Add(1)
		it.sess.degradedFrames.Add(1)
	}

	if n := b.s.cfg.CheckpointEvery; n > 0 && b.s.cfg.SpillDir != "" && (rep.frame+1)%n == 0 {
		checkpoint = EncodeSnapshot(b.s.snapshotLocked(it.sess))
	}
	return checkpoint
}

// badFrameError marks client-caused frame failures (geometry mismatch) so
// the handler maps them to 422 instead of 500.
type badFrameError struct{ error }
