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
	queueWait time.Duration // admission until a worker picked the frame up
	compute   time.Duration
	err       error
	// left is the rectified left view of this frame, captured only when the
	// work item asked for it (cloud intensity).
	left *imgproc.Image
}

// dispatcher sits between the admission queue and the worker pool. It hands
// each admitted frame to the first free worker, holding back only frames of
// a session that already has one in flight: at most one frame per session
// runs at a time, which keeps each session's ISM state machine strictly
// single-threaded and in order.
//
// All dispatcher state is confined to the run goroutine; the only shared
// surfaces are the admit/work/done channels and the server's atomic counters.
type dispatcher struct {
	s *Server

	admit chan *workItem // bounded admission queue (handlers send, dispatcher receives)
	work  chan *workItem // dispatch to workers
	done  chan *session  // worker → dispatcher completion notices

	finished sync.WaitGroup // run + workers
}

func newDispatcher(s *Server) *dispatcher {
	d := &dispatcher{
		s:     s,
		admit: make(chan *workItem, s.cfg.QueueDepth),
		work:  make(chan *workItem),
		done:  make(chan *session, s.cfg.Workers),
	}
	d.finished.Add(1 + s.cfg.Workers)
	go d.run()
	for w := 0; w < s.cfg.Workers; w++ {
		go d.worker()
	}
	return d
}

// run is the dispatcher goroutine. Invariants:
//   - pending[s] holds s's admitted, undispatched frames in FIFO order;
//   - a session is in ready iff it has pending frames and none in flight;
//   - busy[s] marks an in-flight frame (at most one per session).
//
// One select offers the head of ready to the workers, takes admissions and
// takes completion notices. Because the dispatch send never excludes the
// done receive, a worker handing in a completion can always make progress,
// whatever the worker count. Once admit is closed the loop dispatches the
// backlog, waits for the last completion and closes work, stopping the
// workers.
func (d *dispatcher) run() {
	defer d.finished.Done()
	defer close(d.work)

	pending := make(map[*session][]*workItem)
	busy := make(map[*session]bool)
	var ready []*session // FIFO across sessions

	admit := d.admit
	for admit != nil || len(pending) > 0 || len(busy) > 0 {
		var work chan<- *workItem // nil while nothing is ready: never fires
		var head *workItem
		if len(ready) > 0 {
			work, head = d.work, pending[ready[0]][0]
		}
		select {
		case work <- head:
			sess := ready[0]
			ready = ready[1:]
			if q := pending[sess]; len(q) == 1 {
				delete(pending, sess)
			} else {
				pending[sess] = q[1:]
			}
			busy[sess] = true

		case it, ok := <-admit:
			if !ok {
				admit = nil // draining: no new work will arrive
				continue
			}
			q := pending[it.sess]
			pending[it.sess] = append(q, it)
			if !busy[it.sess] && len(q) == 0 {
				ready = append(ready, it.sess)
			}

		case sess := <-d.done:
			delete(busy, sess)
			if len(pending[sess]) > 0 {
				ready = append(ready, sess)
			}
		}
	}
}

// worker executes dispatched frames. Each frame runs the full ISM step for
// its session — key-frame matching or concurrent L/R flow + propagation +
// refinement — via quality.Step and so pipeline.ProcessFrame, the executor
// the batch streaming runtime shares, observing the same metric stages.
func (d *dispatcher) worker() {
	defer d.finished.Done()
	for it := range d.work {
		d.process(it)
		d.done <- it.sess
	}
}

func (d *dispatcher) process(it *workItem) {
	defer it.sess.pendingFrames.Add(-1)
	defer d.s.inflight.Add(-1)
	rep := frameReply{queueWait: time.Since(it.enqueued)}
	d.s.cfg.Metrics.Stage("queue").Observe(rep.queueWait)

	defer func() {
		// A panic in a kernel must not take the server down; it becomes a
		// 500 on this one request. The session's pipeline state is intact
		// because core commits state only after a frame fully succeeds.
		if r := recover(); r != nil {
			rep.err = fmt.Errorf("internal: frame processing panicked: %v", r)
			it.reply <- rep
		}
	}()

	checkpoint := d.runFrame(it, &rep)
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
		d.s.writeSnapshotFile(it.sess.id, checkpoint)
	}
	it.reply <- rep
}

// runFrame executes the ISM step under the session's run lock, which
// serializes the state mutation against snapshot encoding. Workers never
// contend on it (the dispatcher hands out at most one frame per session), so
// in the steady state it is uncontended. The deferred unlock also covers
// kernel panics, which process turns into a 500. Returns the encoded
// checkpoint when one is due.
func (d *dispatcher) runFrame(it *workItem, rep *frameReply) (checkpoint []byte) {
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
		d.s.cfg.Metrics.Stage("rectify").Observe(time.Since(tr))
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
		queued := int(d.s.inflight.Load()) - 1 // frames waiting behind this one
		rung, _ = d.s.ctl.Pick(queued, d.s.cfg.Workers, it.sess.deadlineMs)
	}
	r := d.s.ladder[rung]
	if r.OP.PyrLevel != it.sess.level {
		// The flow kernels require consecutive frames to agree in size, so
		// a cross-level rung switch restarts the temporal chain; the next
		// frame below recovers with a key frame at the new resolution.
		it.sess.pipe.Reset()
		it.sess.level = r.OP.PyrLevel
	}

	t0 := time.Now()
	res := quality.Step(it.sess.pipe, r, d.s.rungMatchers[rung], left, right, d.s.cfg.Metrics)
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
	d.s.ctl.Observe(rung, float64(rep.compute)/1e6)
	d.s.rungServed[rung].Add(1)
	it.sess.lastRung.Store(int64(rung))
	if rung > 0 {
		d.s.degradedTotal.Add(1)
		it.sess.degradedFrames.Add(1)
	}

	if n := d.s.cfg.CheckpointEvery; n > 0 && d.s.cfg.SpillDir != "" && (rep.frame+1)%n == 0 {
		checkpoint = EncodeSnapshot(d.s.snapshotLocked(it.sess))
	}
	return checkpoint
}

// badFrameError marks client-caused frame failures (geometry mismatch) so
// the handler maps them to 422 instead of 500.
type badFrameError struct{ error }
