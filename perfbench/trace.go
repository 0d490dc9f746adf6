package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asv/internal/core"
	"asv/internal/flow"
	"asv/internal/imgproc"
)

// span is one timed interval at a layer boundary. Start and End are offsets
// from the tracer's epoch. Frame is -1, and Parent is -1, when the span
// cannot be tied to a frame — calls made inside the server, where several
// sessions' frames run at once.
type span struct {
	ID       int           `json:"id"`
	Workload string        `json:"workload"`
	Frame    int           `json:"frame"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Parent   int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names recorded by the benchmark.
const (
	spanFrame    = "pipeline.frame"
	spanKeyMatch = "stereo.keymatch"
	spanFlow     = "flow.estimate"
)

// tracer keeps spans in memory for the length of a run. It is safe for
// concurrent use. The decorators below attach their spans to the frame span
// the driver has marked current with setFrame.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span

	curSpan  atomic.Int64 // id of the open frame span, -1 when none
	curFrame atomic.Int64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	t.curSpan.Store(-1)
	t.curFrame.Store(-1)
	return t
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, frame, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Workload: t.workload, Frame: frame, Name: name, Start: now, End: now, Parent: parent})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// beginChild opens a span under the current frame span, if any.
func (t *tracer) beginChild(name string) int {
	return t.begin(name, int(t.curFrame.Load()), int(t.curSpan.Load()))
}

// setFrame marks span id (of frame) as the parent of decorator spans until
// the next call; setFrame(-1, -1) clears it.
func (t *tracer) setFrame(id, frame int) {
	t.curFrame.Store(int64(frame))
	t.curSpan.Store(int64(id))
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes the spans to path, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			//asvlint:ignore droppederr the encode error is the one reported
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		//asvlint:ignore droppederr the flush error is the one reported
		f.Close()
		return err
	}
	return f.Close()
}

// children groups spans by parent id.
func children(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered returns how much of s the union of kids covers, each kid clipped
// to s. Overlapping kids (the concurrent left and right flow estimates)
// count once.
func covered(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if open {
		total += cur.b - cur.a
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, kids []span) time.Duration { return s.dur() - covered(s, kids) }

// checkNesting reports the first child span that is not contained in its
// parent, or whose parent id does not exist.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%v,%v] lies outside its parent %d (%s) [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// tracedMatcher is a transparent core.KeyMatcher decorator: Match is timed
// as a stereo.keymatch span, MACs and Name are delegated unchanged.
type tracedMatcher struct {
	inner core.KeyMatcher
	tr    *tracer
}

func (m tracedMatcher) Match(left, right *imgproc.Image) *imgproc.Image {
	id := m.tr.beginChild(spanKeyMatch)
	d := m.inner.Match(left, right)
	m.tr.end(id)
	return d
}

func (m tracedMatcher) MACs(w, h int) int64 { return m.inner.MACs(w, h) }
func (m tracedMatcher) Name() string        { return m.inner.Name() }

// tracedME is the same decorator for core.MotionEstimator. Because it is not
// a core.FarnebackME, core.Pipeline.NonKeyBreakdown prices it through MACs;
// that equals the Farneback conv+pointwise split, so Result.MACs does not
// change (tested in trace_test.go).
type tracedME struct {
	inner core.MotionEstimator
	tr    *tracer
}

func (m tracedME) Estimate(prev, next *imgproc.Image) flow.Field {
	id := m.tr.beginChild(spanFlow)
	f := m.inner.Estimate(prev, next)
	m.tr.end(id)
	return f
}

func (m tracedME) MACs(w, h int) int64 { return m.inner.MACs(w, h) }
func (m tracedME) Name() string        { return m.inner.Name() }
