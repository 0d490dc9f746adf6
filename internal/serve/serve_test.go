package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"asv/internal/backend/backends"
	"asv/internal/core"
	"asv/internal/hw"
	"asv/internal/imgproc"
	"asv/internal/stereo"
)

// testMatcher wraps BM with an optional artificial delay so backpressure
// tests can fill the admission queue deterministically.
type testMatcher struct {
	inner core.KeyMatcher
	delay time.Duration
}

func (m testMatcher) Match(l, r *imgproc.Image) *imgproc.Image {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return m.inner.Match(l, r)
}
func (m testMatcher) MACs(w, h int) int64 { return m.inner.MACs(w, h) }
func (m testMatcher) Name() string        { return "test-" + m.inner.Name() }

func quickMatcher(delay time.Duration) testMatcher {
	opt := stereo.DefaultBMOptions()
	opt.MaxDisp = 12
	return testMatcher{inner: core.BMMatcher{Opt: opt}, delay: delay}
}

// testServer spins up a Server on an httptest listener and returns a
// cleanup-registered handle.
func testServer(t *testing.T, cfg Config, delay time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	return serveWith(t, quickMatcher(delay), cfg)
}

// serveWith is testServer for a caller-supplied matcher.
func serveWith(t *testing.T, matcher core.KeyMatcher, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(matcher, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func createPresetSession(t *testing.T, base string, req CreateSessionRequest) SessionInfo {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("create session: %s: %s", resp.Status, body)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func submit(t *testing.T, base, id string) (int, FrameResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/"+id+"/frames", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fr FrameResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, fr
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 2,
	})
	if info.ID == "" || info.PW != 2 || info.Preset != "sceneflow" {
		t.Fatalf("bad session info: %+v", info)
	}

	// GET reflects activity.
	status, fr := submit(t, ts.URL, info.ID)
	if status != http.StatusOK || !fr.IsKey || fr.Frame != 0 {
		t.Fatalf("first frame: status %d, %+v", status, fr)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Frames != 1 || got.KeyFrames != 1 || got.W != 48 || got.H != 32 {
		t.Fatalf("session info after one frame: %+v", got)
	}

	// DELETE then 404 everywhere.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", resp.Status)
	}
	if status, _ := submit(t, ts.URL, info.ID); status != http.StatusNotFound {
		t.Fatalf("submit after delete: %d", status)
	}
}

// Frame N must run the key matcher iff N ≡ 0 (mod PW) — the ISM schedule,
// reproduced under request-driven arrival.
func TestKeyFrameCadence(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	const pw, n = 3, 10
	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "kitti", W: 48, H: 32, Frames: 5, PW: pw,
	})
	keys := 0
	for i := 0; i < n; i++ {
		status, fr := submit(t, ts.URL, info.ID)
		if status != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, status)
		}
		if fr.Frame != i {
			t.Fatalf("frame %d: server says index %d", i, fr.Frame)
		}
		if want := i%pw == 0; fr.IsKey != want {
			t.Fatalf("frame %d: is_key=%v, want %v", i, fr.IsKey, want)
		}
		if fr.IsKey {
			keys++
		}
		if fr.Disparity.W != 48 || fr.Disparity.H != 32 || fr.Disparity.ValidPc <= 0 {
			t.Fatalf("frame %d: bad disparity stats %+v", i, fr.Disparity)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	var got SessionInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.KeyFrames != int64(keys) || got.Frames != n {
		t.Fatalf("accounting: %+v (want %d keys / %d frames)", got, keys, n)
	}
}

// A full admission queue must shed load with 429 + Retry-After, and the
// accepted/rejected accounting must cover every submission exactly once.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Config{
		QueueDepth: 2, Workers: 1, MaxSessions: 8,
	}, 30*time.Millisecond)

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 1,
	})

	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	var retryAfterSeen bool
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			mu.Lock()
			counts[resp.StatusCode]++
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "" {
				retryAfterSeen = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s under a flood with queue depth 2: %v", counts)
	}
	if !retryAfterSeen {
		t.Fatal("429 responses missing Retry-After")
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no successes at all: %v", counts)
	}
	accepted, rejected := s.accepted.Load(), s.rejected.Load()
	if int(accepted) != counts[http.StatusOK] {
		t.Fatalf("accepted counter %d != %d OK responses", accepted, counts[http.StatusOK])
	}
	if int(rejected) != counts[http.StatusTooManyRequests] {
		t.Fatalf("rejected counter %d != %d 429s", rejected, counts[http.StatusTooManyRequests])
	}
	if int(accepted+rejected) != clients {
		t.Fatalf("accounting leak: accepted %d + rejected %d != %d submissions",
			accepted, rejected, clients)
	}

	// The counters surface in /metrics under their stable names.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	serveDoc, ok := doc["serve"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing serve section: %v", doc)
	}
	for _, key := range []string{"rejected_429", "frames_accepted", "frames_completed",
		"queue_depth", "queue_capacity", "sessions_active"} {
		if _, ok := serveDoc[key]; !ok {
			t.Fatalf("serve metrics missing %q: %v", key, serveDoc)
		}
	}
	if int(serveDoc["rejected_429"].(float64)) != counts[http.StatusTooManyRequests] {
		t.Fatalf("metrics rejected_429 %v != %d", serveDoc["rejected_429"], counts[http.StatusTooManyRequests])
	}
}

// Concurrent create/submit/evict across goroutines: correctness is checked
// by the race detector (this test is in the CI race gate) plus conservation
// of the accounting counters.
func TestConcurrentSessionLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxSessions: 4, QueueDepth: 64, Workers: 3,
	}, 0)

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				info := createPresetSession(t, ts.URL, CreateSessionRequest{
					Preset: "sceneflow", W: 32, H: 24, Frames: 3, PW: 2,
					Seed: int64(g*10 + round + 1),
				})
				for f := 0; f < 3; f++ {
					status, _ := submit(t, ts.URL, info.ID)
					// 404 is legal: another goroutine's create may have
					// LRU-evicted us. 429 is legal under load.
					if status != http.StatusOK && status != http.StatusNotFound &&
						status != http.StatusTooManyRequests {
						t.Errorf("unexpected status %d", status)
					}
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	if s.tab.len() > 4 {
		t.Fatalf("session table exceeded MaxSessions: %d", s.tab.len())
	}
	if got, want := s.completed.Load(), s.accepted.Load(); got != want {
		t.Fatalf("completed %d != accepted %d after quiescence", got, want)
	}
}

// TTL expiry is unit-tested directly against the table (the janitor period
// is too coarse for a test).
func TestSessionTTLExpiry(t *testing.T) {
	tab := newSessionTable(8)
	old := &session{id: "old"}
	old.lastUseNs.Store(time.Now().Add(-time.Hour).UnixNano())
	fresh := &session{id: "fresh"}
	fresh.touch()
	queued := &session{id: "queued"}
	queued.lastUseNs.Store(time.Now().Add(-time.Hour).UnixNano())
	queued.pendingFrames.Add(1)
	tab.add(old)
	tab.add(fresh)
	tab.add(queued)

	if ev := tab.expire(time.Minute); len(ev) != 1 {
		t.Fatalf("expired %d sessions, want 1", len(ev))
	}
	if tab.get("old") != nil {
		t.Fatal("idle session survived TTL")
	}
	if tab.get("fresh") == nil {
		t.Fatal("fresh session evicted")
	}
	if tab.get("queued") == nil {
		t.Fatal("session with queued work evicted")
	}
	if tab.evictions.Load() != 1 {
		t.Fatalf("eviction counter %d, want 1", tab.evictions.Load())
	}
}

func TestLRUEvictionOnOverflow(t *testing.T) {
	tab := newSessionTable(2)
	a := &session{id: "a"}
	a.lastUseNs.Store(1)
	b := &session{id: "b"}
	b.lastUseNs.Store(2)
	tab.add(a)
	tab.add(b)
	c := &session{id: "c"}
	c.touch()
	tab.add(c)
	if tab.get("a") != nil {
		t.Fatal("LRU session not evicted")
	}
	if tab.get("b") == nil || tab.get("c") == nil {
		t.Fatal("wrong eviction victim")
	}
	if tab.len() != 2 {
		t.Fatalf("table size %d, want 2", tab.len())
	}
}

// Uploaded frames: PGM multipart works; oversize images bounce with 413
// before allocation; mismatched geometry is a 422.
func TestUploadDecodeAndCaps(t *testing.T) {
	_, ts := testServer(t, Config{MaxPixels: 48 * 32}, 0)
	info := createPresetSession(t, ts.URL, CreateSessionRequest{PW: 2})

	post := func(lw, lh, rw, rh int) int {
		t.Helper()
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, p := range []struct {
			name string
			w, h int
		}{{"left", lw, lh}, {"right", rw, rh}} {
			fw, err := mw.CreateFormFile(p.name, p.name+".pgm")
			if err != nil {
				t.Fatal(err)
			}
			if err := imgproc.WritePGM(fw, imgproc.NewImage(p.w, p.h)); err != nil {
				t.Fatal(err)
			}
		}
		mw.Close()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames",
			mw.FormDataContentType(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if status := post(48, 32, 48, 32); status != http.StatusOK {
		t.Fatalf("valid upload: %d", status)
	}
	// One pixel over the cap → 413 from the typed decode error.
	if status := post(49, 32, 49, 32); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %d, want 413", status)
	}
	// Geometry mismatch with the established 48x32 stream → 422.
	if status := post(32, 32, 32, 32); status != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched upload: %d, want 422", status)
	}
	// Garbage body → 400.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/frames",
		"multipart/form-data; boundary=x", bytes.NewReader([]byte("not multipart")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d, want 400", resp.StatusCode)
	}
}

// Graceful drain: everything admitted before Close completes with 200; new
// work during/after the drain gets 503.
func TestGracefulDrain(t *testing.T) {
	s := New(quickMatcher(10*time.Millisecond), Config{QueueDepth: 16, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := createPresetSession(t, ts.URL, CreateSessionRequest{
		Preset: "sceneflow", W: 48, H: 32, Frames: 4, PW: 1,
	})

	const n = 6
	statuses := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := submit(t, ts.URL, info.ID)
			statuses <- status
		}()
	}
	// Let the flood land in the queue, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("in-flight request got %d during graceful drain", status)
		}
	}
	if status, _ := submit(t, ts.URL, info.ID); status != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", status)
	}
	if s.drained503.Load() == 0 {
		t.Fatal("drained-request accounting not incremented")
	}
}

func TestHealthzAndPprofGate(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// pprof is off by default.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof mounted without EnablePprof")
	}

	cfgOn := Config{EnablePprof: true}
	_, tsOn := testServer(t, cfgOn, 0)
	resp, err = http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof gate on: %d", resp.StatusCode)
	}
}

// overlapMatcher records which sessions are inside Match at the same time,
// telling them apart by frame width. Until two distinct sessions have
// overlapped, a call lingers up to linger for a partner, so a dispatcher
// that runs sessions concurrently shows it even on a loaded host, while one
// that serializes them never can.
type overlapMatcher struct {
	testMatcher
	linger time.Duration

	mu         sync.Mutex
	inside     map[int]int   // frame width → calls inside Match
	met        chan struct{} // closed at the first cross-session overlap
	overlapped bool
}

func (m *overlapMatcher) Match(l, r *imgproc.Image) *imgproc.Image {
	m.mu.Lock()
	m.inside[l.W]++
	if len(m.inside) >= 2 && !m.overlapped {
		m.overlapped = true
		close(m.met)
	}
	m.mu.Unlock()

	select {
	case <-m.met:
	case <-time.After(m.linger):
	}
	out := m.testMatcher.Match(l, r)

	m.mu.Lock()
	if m.inside[l.W]--; m.inside[l.W] == 0 {
		delete(m.inside, l.W)
	}
	m.mu.Unlock()
	return out
}

// Frames of distinct sessions must run on the worker pool at the same time.
func TestBatcherCoalescesAcrossSessions(t *testing.T) {
	m := &overlapMatcher{
		testMatcher: quickMatcher(0),
		linger:      2 * time.Second,
		inside:      map[int]int{},
		met:         make(chan struct{}),
	}
	_, ts := serveWith(t, m, Config{QueueDepth: 32, Workers: 4})

	var ids []string
	for i := 0; i < 4; i++ {
		info := createPresetSession(t, ts.URL, CreateSessionRequest{
			Preset: "sceneflow", W: 32 + 8*i, H: 24, Frames: 2, PW: 1, Seed: int64(i + 1),
		})
		ids = append(ids, info.ID)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for f := 0; f < 2; f++ {
				if status, _ := submit(t, ts.URL, id); status != http.StatusOK {
					t.Errorf("status %d", status)
				}
			}
		}(id)
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.overlapped {
		t.Fatal("no two sessions were ever inside Match at the same time")
	}
}

// TestBatcherFewerWorkersThanBatch is the regression test for a dispatch
// deadlock: a dispatcher that blocks handing out work without also taking
// completion notices wedges as soon as the done channel (capacity Workers)
// is full, because the one worker then blocks handing its notice in. Eight
// concurrent sessions against one worker used to wedge permanently.
func TestBatcherFewerWorkersThanBatch(t *testing.T) {
	_, ts := testServer(t, Config{
		QueueDepth: 32, Workers: 1,
	}, time.Millisecond)

	const sessions, frames = 8, 3
	var ids []string
	for i := 0; i < sessions; i++ {
		info := createPresetSession(t, ts.URL, CreateSessionRequest{
			Preset: "sceneflow", W: 32, H: 24, Frames: frames, PW: 1, Seed: int64(i + 1),
		})
		ids = append(ids, info.ID)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if status, _ := submit(t, ts.URL, id); status != http.StatusOK {
					t.Errorf("status %d", status)
				}
			}
		}(id)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dispatcher deadlocked: 8 sessions x 1 worker never completed")
	}
}

func TestMetricsBackendCostSection(t *testing.T) {
	cfg := Config{
		CostBackend: backends.NewSystolic(hw.Default(), hw.DefaultEnergy()),
		CostNonKey:  backends.DefaultNonKey(),
	}
	_, ts := testServer(t, cfg, 0)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	be, ok := doc["backend"].(map[string]any)
	if !ok {
		t.Fatalf("no backend section in /metrics: %v", doc)
	}
	if be["name"] != "systolic" {
		t.Fatalf("backend name %v, want systolic", be["name"])
	}
	// Default PW is 4 and the systolic model supports ISM, so the estimate
	// must be the amortized steady-state cost, not the raw DNN cost.
	if be["mode"] != "ism-pw4" {
		t.Fatalf("mode %v, want ism-pw4", be["mode"])
	}
	for _, k := range []string{"est_frame_ms", "est_fps", "est_frame_mj", "est_frame_gmacs"} {
		v, ok := be[k].(float64)
		if !ok || v <= 0 {
			t.Errorf("%s = %v, want positive number", k, be[k])
		}
	}
}

func TestMetricsBackendSectionOmittedByDefault(t *testing.T) {
	_, ts := testServer(t, Config{}, 0)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["backend"]; ok {
		t.Fatal("backend section present without a configured CostBackend")
	}
}
