package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/perception"
	"asv/internal/quality"
	"asv/internal/rectify"
	"asv/internal/serve"
	"asv/internal/stereo"
)

// The serve workloads drive an in-process server on loopback with camSessions
// calibrated cameras. Each uploads misaligned PGM pairs at camFPS; the first
// half of the sessions take JSON replies, the rest ?disparity=pfm. A camera's
// stream is a run of camClip-frame SceneFlow-like clips, cut on key frames,
// so a run scores dozens of scenes and bad3_pct does not hinge on one.
const (
	camW, camH   = 128, 80
	camSessions  = 4
	camFPS       = 5
	camPW        = 4
	camClip      = camPW
	goldLimit    = time.Second / camFPS // a gold frame is late after one camera period
	beDeadlineMs = 10                   // best-effort sessions' declared deadline
)

// camPayload is one pre-encoded upload with the pieces the checks need.
type camPayload struct {
	body        []byte
	contentType string
	pgmL, pgmR  []byte         // the two PGM parts, for the oracle's decode
	gt          *imgproc.Image // ground truth on the rectified grid
}

// camCalibration is the rig every session declares: a small per-eye
// rotation, so the server rectifies each pair before matching.
func camCalibration() *perception.Calibration {
	c := perception.DefaultCalibration(camW, camH)
	c.LeftRPY = [3]float64{0.004, -0.003, 0.002}
	c.RightRPY = [3]float64{-0.002, 0.005, -0.003}
	return c
}

func serveMatcher() core.KeyMatcher {
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 32
	opt.Fixed = true
	return core.SGMMatcher{Opt: opt}
}

func serveConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.PW = camPW
	cfg.Pipeline.BM.Fixed = true
	return cfg
}

// camLimit is the latency limit a frame must meet from its due time: one
// camera period for gold sessions, the declared deadline for best-effort.
func camLimit(besteffort bool) time.Duration {
	if besteffort {
		return beDeadlineMs * time.Millisecond
	}
	return goldLimit
}

// jsonReplies reports whether session s takes JSON replies (else PFM).
func jsonReplies(s int) bool { return s < camSessions/2 }

// camFrames renders session s's first n frames: clip c is SceneFlow-like
// scene s+c·camSessions (of the generator's 26) under its own seed.
func camFrames(seed int64, s, n int) []dataset.FramePair {
	var frames []dataset.FramePair
	for c := 0; len(frames) < n; c++ {
		scenes := dataset.SceneFlowLike(camW, camH, camClip, seed+int64(c)*104729)
		frames = append(frames, dataset.Generate(scenes[(s+c*camSessions)%len(scenes)]).Frames...)
	}
	return frames[:n]
}

// camPayloads renders n frames per session, warps each pair off the
// rectified frame through calib and encodes it as a multipart PGM upload.
func camPayloads(seed int64, n int, calib *perception.Calibration) ([][]camPayload, error) {
	out := make([][]camPayload, camSessions)
	for s := range out {
		for _, f := range camFrames(seed, s, n) {
			var p camPayload
			var buf bytes.Buffer
			mw := multipart.NewWriter(&buf)
			for _, part := range []struct {
				name string
				im   *imgproc.Image
				dst  *[]byte
			}{
				{"left", rectify.Misalign(f.Left, calib.Intrinsics(), calib.RotLeft()), &p.pgmL},
				{"right", rectify.Misalign(f.Right, calib.Intrinsics(), calib.RotRight()), &p.pgmR},
			} {
				var pgm bytes.Buffer
				if err := imgproc.WritePGM(&pgm, part.im); err != nil {
					return nil, fmt.Errorf("encoding %s PGM: %w", part.name, err)
				}
				*part.dst = pgm.Bytes()
				fw, err := mw.CreateFormFile(part.name, part.name+".pgm")
				if err != nil {
					return nil, err
				}
				if _, err := fw.Write(pgm.Bytes()); err != nil {
					return nil, err
				}
			}
			if err := mw.Close(); err != nil {
				return nil, err
			}
			p.body, p.contentType, p.gt = buf.Bytes(), mw.FormDataContentType(), f.GT
			out[s] = append(out[s], p)
		}
	}
	return out, nil
}

// camServer is a started server with its camera sessions.
type camServer struct {
	srv  *serve.Server
	base string
	ids  []string
}

func (c *camServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.srv.Close(ctx)
}

// startCamServer starts a server on loopback and creates the sessions.
func startCamServer(matcher core.KeyMatcher, cfg serve.Config, calib *perception.Calibration, besteffort bool) (*camServer, error) {
	srv := serve.New(matcher, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	c := &camServer{srv: srv, base: "http://" + addr.String()}
	req := serve.CreateSessionRequest{PW: camPW, Calibration: calib.EncodeJSON()}
	if besteffort {
		req.SLO, req.DeadlineMs = "besteffort", beDeadlineMs
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for s := 0; s < camSessions; s++ {
		id, err := createSession(c.base, body)
		if err != nil {
			//asvlint:ignore droppederr the session error is the one reported
			c.close()
			return nil, err
		}
		c.ids = append(c.ids, id)
	}
	return c, nil
}

func createSession(base string, body []byte) (string, error) {
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("creating session: %w", err)
	}
	//asvlint:ignore droppederr the body is only read; decoding reports any failure
	defer resp.Body.Close()
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("creating session: decoding reply: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("creating session: status %d", resp.StatusCode)
	}
	return info.ID, nil
}

// camFrame is one camera frame as the generator saw it.
type camFrame struct {
	due, sent, done time.Time
	slept           bool          // the generator waited for the due time
	lag             time.Duration // how late it woke, when it slept
	connWait        time.Duration // GetConn → GotConn
	status          int
	transportErr    error
	body            []byte
	header          http.Header
}

// driveCameras is the open-loop camera generator. Session s's frame i is
// due at start + s·period/camSessions + i·period; it is sent at its due time,
// or as soon as the session's previous reply has returned if that is later,
// so each session's frames stay in order. Latency is measured from the due
// time. All sessions share one transport capped at nproc connections.
func driveCameras(base string, ids []string, payloads [][]camPayload, n int) ([][]camFrame, time.Time) {
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	period := time.Second / camFPS
	start := time.Now().Add(20 * time.Millisecond)
	frames := make([][]camFrame, len(ids))
	var wg sync.WaitGroup
	for s := range ids {
		frames[s] = make([]camFrame, n)
		url := base + "/v1/sessions/" + ids[s] + "/frames"
		if !jsonReplies(s) {
			url += "?disparity=pfm"
		}
		wg.Add(1)
		go func(s int, url string) {
			defer wg.Done()
			offset := time.Duration(s) * period / time.Duration(len(ids))
			for i := 0; i < n; i++ {
				f := &frames[s][i]
				f.due = start.Add(offset + time.Duration(i)*period)
				if wait := time.Until(f.due); wait > 0 {
					time.Sleep(wait)
					f.slept, f.lag = true, time.Since(f.due)
				}
				sendFrame(client, url, payloads[s][i], f)
			}
		}(s, url)
	}
	wg.Wait()
	return frames, start
}

// sendFrame posts one upload and reads the whole reply into f.
func sendFrame(client *http.Client, url string, p camPayload, f *camFrame) {
	var getConn time.Time
	trace := &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { f.connWait = time.Since(getConn) },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
		http.MethodPost, url, bytes.NewReader(p.body))
	if err != nil {
		f.transportErr = err
		return
	}
	req.Header.Set("Content-Type", p.contentType)
	f.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		f.transportErr, f.done = err, time.Now()
		return
	}
	//asvlint:ignore droppederr the body is only read; ReadAll reports any failure
	defer resp.Body.Close()
	f.body, f.transportErr = io.ReadAll(resp.Body)
	f.done = time.Now()
	f.status, f.header = resp.StatusCode, resp.Header
}

// camOracle is the serial core.Pipeline.Process result of one gold frame.
type camOracle struct {
	key   bool
	macs  int64
	hash  uint64
	stats stereo.DispStats
}

// serveOracle replays each session's uploads offline — decode the PGM
// parts, rectify through the calibration, core.Pipeline.Process — on up to
// two goroutines, one per session.
func serveOracle(payloads [][]camPayload, n int, calib *perception.Calibration) ([][]camOracle, error) {
	cfg := serveConfig().Pipeline
	cfg.PW = camPW
	out := make([][]camOracle, len(payloads))
	errs := make([]error, len(payloads))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for s := range payloads {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := core.New(serveMatcher(), cfg)
			for i := 0; i < n; i++ {
				l, r, err := decodePair(payloads[s][i])
				if err != nil {
					errs[s] = err
					return
				}
				l, r = calib.RectifyPair(l, r)
				res := p.Process(l, r)
				out[s] = append(out[s], camOracle{key: res.IsKey, macs: res.MACs, hash: hashImage(res.Disparity), stats: stereo.DisparityStats(res.Disparity)})
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodePair(p camPayload) (l, r *imgproc.Image, err error) {
	if l, err = imgproc.ReadPGM(bytes.NewReader(p.pgmL)); err != nil {
		return nil, nil, fmt.Errorf("decoding left PGM: %w", err)
	}
	if r, err = imgproc.ReadPGM(bytes.NewReader(p.pgmR)); err != nil {
		return nil, nil, fmt.Errorf("decoding right PGM: %w", err)
	}
	return l, r, nil
}

// camReply is a checked reply, in one shape for both reply formats.
type camReply struct {
	ok                  bool
	key                 bool
	macs                int64
	rung                string
	latency             time.Duration // from due time to full reply
	queueMs, computeMs  float64       // JSON replies only
	hasTimings, hasDisp bool
	bad3                float64 // PFM replies only
}

var ladderRungs = func() map[string]bool {
	m := make(map[string]bool)
	for _, r := range quality.DefaultLadder() {
		m[r.Name] = true
	}
	return m
}()

// checkCamFrame decodes and checks one reply. Gold replies must equal the
// oracle (bit-identical PFM disparity, or equal DispStats for JSON); a
// best-effort reply must name a ladder rung and carry the input geometry.
func checkCamFrame(s, i int, f camFrame, p camPayload, want *camOracle) (camReply, error) {
	rep := camReply{latency: f.done.Sub(f.due)}
	if f.transportErr != nil {
		return rep, fmt.Errorf("transport: %v", f.transportErr)
	}
	if f.status != http.StatusOK {
		return rep, fmt.Errorf("status %d: %.120s", f.status, f.body)
	}
	frame := -1
	var w, h int
	var hash uint64
	var stats stereo.DispStats
	if jsonReplies(s) {
		var fr serve.FrameResponse
		if err := json.Unmarshal(f.body, &fr); err != nil {
			return rep, fmt.Errorf("decoding JSON reply: %w", err)
		}
		frame, rep.key, rep.macs, rep.rung = fr.Frame, fr.IsKey, fr.MACs, fr.Rung
		rep.queueMs, rep.computeMs, rep.hasTimings = fr.QueueMs, fr.ComputeMs, true
		w, h, stats = fr.Disparity.W, fr.Disparity.H, fr.Disparity
	} else {
		d, err := imgproc.ReadPFM(bytes.NewReader(f.body))
		if err != nil {
			return rep, fmt.Errorf("decoding PFM reply: %w", err)
		}
		if frame, err = strconv.Atoi(f.header.Get("X-ASV-Frame")); err != nil {
			return rep, fmt.Errorf("X-ASV-Frame header: %w", err)
		}
		if rep.macs, err = strconv.ParseInt(f.header.Get("X-ASV-MACs"), 10, 64); err != nil {
			return rep, fmt.Errorf("X-ASV-MACs header: %w", err)
		}
		rep.key = f.header.Get("X-ASV-Is-Key") == "true"
		rep.rung = f.header.Get("X-ASV-Rung")
		w, h, hash = d.W, d.H, hashImage(d)
		if d.W == p.gt.W && d.H == p.gt.H {
			rep.bad3, rep.hasDisp = stereo.ThreePixelError(d, p.gt), true
		}
	}
	switch {
	case frame != i:
		return rep, fmt.Errorf("reply is for frame %d", frame)
	case !ladderRungs[rep.rung]:
		return rep, fmt.Errorf("reply names unknown rung %q", rep.rung)
	case w != camW || h != camH:
		return rep, fmt.Errorf("reply geometry %dx%d, want %dx%d", w, h, camW, camH)
	}
	if want != nil {
		switch {
		case rep.rung != "full":
			return rep, fmt.Errorf("gold frame served at rung %q", rep.rung)
		case rep.key != want.key || rep.macs != want.macs:
			return rep, fmt.Errorf("key %v MACs %d, oracle key %v MACs %d", rep.key, rep.macs, want.key, want.macs)
		case jsonReplies(s) && stats != want.stats:
			return rep, fmt.Errorf("disparity stats %+v, oracle %+v", stats, want.stats)
		case !jsonReplies(s) && hash != want.hash:
			return rep, fmt.Errorf("disparity differs from the oracle (hash %x/%x)", hash, want.hash)
		}
	}
	rep.ok = true
	return rep, nil
}

// camPhase is one measured phase: a fresh server and sessions, the camera
// generator, then the server's drain.
type camPhase struct {
	frames [][]camFrame
	start  time.Time
}

func runCamPhase(c *camServer, payloads [][]camPayload, n int) (camPhase, error) {
	frames, start := driveCameras(c.base, c.ids, payloads, n)
	if err := c.close(); err != nil {
		return camPhase{}, fmt.Errorf("closing server: %w", err)
	}
	return camPhase{frames: frames, start: start}, nil
}

// checkCamPhase checks every frame of a phase and returns the replies.
func checkCamPhase(out *outcome, phase string, ph camPhase, payloads [][]camPayload, oracle [][]camOracle) [][]camReply {
	reps := make([][]camReply, len(ph.frames))
	for s, fs := range ph.frames {
		reps[s] = make([]camReply, len(fs))
		for i, f := range fs {
			var want *camOracle
			if oracle != nil {
				want = &oracle[s][i]
			}
			rep, err := checkCamFrame(s, i, f, payloads[s][i], want)
			out.attempted++
			if err != nil {
				out.failed++
				out.problemf("%s: session %d frame %d: %v", phase, s, i, err)
			}
			reps[s][i] = rep
		}
	}
	return reps
}

// latencies returns every frame's latency from its due time in ms, a failed
// frame reading as later than any limit.
func latencies(reps [][]camReply) []float64 {
	var out []float64
	for _, rs := range reps {
		for _, r := range rs {
			if r.ok {
				out = append(out, ms(r.latency))
			} else {
				out = append(out, math.MaxFloat64)
			}
		}
	}
	return out
}

func runServe(o options, besteffort bool) (*outcome, error) {
	calib := camCalibration()
	n := int(math.Ceil(o.seconds.Seconds() * camFPS))
	if o.trace {
		n = max(n/2, 1)
	}
	type setup struct {
		payloads [][]camPayload
		srv      *camServer
	}
	st, setupS, err := timedSetup(setupRepeats, func() (setup, error) {
		p, err := camPayloads(o.seed, n, calib)
		if err != nil {
			return setup{}, err
		}
		srv, err := startCamServer(serveMatcher(), serveConfig(), calib, besteffort)
		return setup{p, srv}, err
	}, func(st setup) {
		//asvlint:ignore droppederr a discarded set-up's server has served nothing
		st.srv.close()
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.values["setup_s"] = setupS

	resetPeakRSS()
	ph, err := runCamPhase(st.srv, st.payloads, n)
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = peakRSSMB()
	var oracle [][]camOracle
	if !besteffort {
		if oracle, err = serveOracle(st.payloads, n, calib); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	reps := checkCamPhase(out, "run", ph, st.payloads, oracle)
	if !o.trace {
		serveEndToEnd(out, ph, reps, besteffort)
		return out, nil
	}

	// Traced half: the same uploads into a fresh server whose matcher and
	// motion estimator are the tracing decorators.
	tr := newTracer(o.workload)
	cfg := serveConfig()
	cfg.Pipeline.ME = tracedME{inner: cfg.Pipeline.MotionSource(), tr: tr}
	srv, err := startCamServer(tracedMatcher{inner: serveMatcher(), tr: tr}, cfg, calib, besteffort)
	if err != nil {
		return nil, err
	}
	tph, err := runCamPhase(srv, st.payloads, n)
	if err != nil {
		return nil, err
	}
	treps := checkCamPhase(out, "traced half", tph, st.payloads, oracle)
	spans := tr.snapshot()
	serveLayers(out, spans, tph, treps, besteffort)
	out.values["trace.overhead_pct"] = 100 * (ratio(median(latencies(treps)), median(latencies(reps))) - 1)
	payloadLayers(out, st.payloads, n, calib)
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeJSONL(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return out, nil
}

func serveEndToEnd(out *outcome, ph camPhase, reps [][]camReply, besteffort bool) {
	limit := camLimit(besteffort)
	var served, met int
	var last time.Time
	var bad3 []float64
	for s, rs := range reps {
		for i, r := range rs {
			f := ph.frames[s][i]
			if f.status == http.StatusOK {
				served++
			}
			if f.done.After(last) {
				last = f.done
			}
			if r.ok && r.latency <= limit {
				met++
			}
			if r.hasDisp {
				bad3 = append(bad3, r.bad3)
			}
		}
	}
	lat := latencies(reps)
	var bad3Sum float64
	for _, b := range bad3 {
		bad3Sum += b
	}
	out.values["frames_per_s"] = float64(served) / last.Sub(ph.start).Seconds()
	out.values["frame_p50_ms"] = quantile(lat, 0.5)
	out.values["frame_p95_ms"] = quantile(lat, 0.95)
	out.values["ok_frac"] = float64(out.attempted-out.failed) / float64(max(out.attempted, 1))
	out.values["deadline_met_frac"] = float64(met) / float64(max(out.attempted, 1))
	out.values["bad3_pct"] = ratio(bad3Sum, float64(len(bad3)))
}

// serveLayers derives the per-layer metrics of a traced serve phase from
// the replies' own timings, the client-side HTTP trace and the decorator
// spans. Decorator spans inside the server cannot be tied to a frame, so
// flow.pair_wall_ms_p50, flow.parallelism and core.propagate_refine_ms_p50
// are left at 0 here.
func serveLayers(out *outcome, spans []span, ph camPhase, reps [][]camReply, besteffort bool) {
	limit := camLimit(besteffort)
	var keyMs, nonKeyMs, queue, compute, residual, connWait, lag, matchMs, flowMs []float64
	var keyMACs, nonKeyMACs []float64
	var key, nonKey, s429, s5xx, transport, served, degraded, misses, keyMisses int
	rungs := make(map[string]int)
	for s, rs := range reps {
		for i, r := range rs {
			f := ph.frames[s][i]
			connWait = append(connWait, ms(f.connWait))
			if f.slept {
				lag = append(lag, ms(f.lag))
			}
			switch {
			case f.transportErr != nil:
				transport++
			case f.status == http.StatusTooManyRequests:
				s429++
			case f.status >= 500:
				s5xx++
			}
			if !r.ok || r.latency > limit {
				misses++
				if r.key {
					keyMisses++
				}
			}
			if f.status != http.StatusOK || r.rung == "" {
				continue
			}
			served++
			rungs[r.rung]++
			if r.rung != "full" {
				degraded++
			}
			if r.key {
				key++
				keyMACs = append(keyMACs, float64(r.macs))
			} else {
				nonKey++
				nonKeyMACs = append(nonKeyMACs, float64(r.macs))
			}
			if !r.hasTimings {
				continue
			}
			if r.key {
				keyMs = append(keyMs, r.computeMs)
			} else {
				nonKeyMs = append(nonKeyMs, r.computeMs)
			}
			queue = append(queue, r.queueMs)
			compute = append(compute, r.computeMs)
			residual = append(residual, ms(f.done.Sub(f.sent))-r.queueMs-r.computeMs)
		}
	}
	for _, sp := range spans {
		switch sp.Name {
		case spanKeyMatch:
			matchMs = append(matchMs, ms(sp.dur()))
		case spanFlow:
			flowMs = append(flowMs, ms(sp.dur()))
		}
	}
	v := out.values
	v["pipeline.key_frame_ms_p50"] = median(keyMs)
	v["pipeline.nonkey_frame_ms_p50"] = median(nonKeyMs)
	v["pipeline.key_frames"] = float64(key)
	v["pipeline.nonkey_frames"] = float64(nonKey)
	v["pipeline.nonkey_over_key"] = ratio(median(nonKeyMs), median(keyMs))
	v["stereo.keymatch_ms_p50"] = median(matchMs)
	v["stereo.keymatch_calls"] = float64(len(matchMs))
	if len(matchMs) > 0 {
		v["stereo.keymatch_mmacs"] = float64(serveMatcher().MACs(camW, camH)) / 1e6
	}
	v["flow.estimate_ms_p50"] = median(flowMs)
	v["flow.calls"] = float64(len(flowMs))
	v["core.nonkey_mmacs"] = median(nonKeyMACs) / 1e6
	v["core.ism_ms_saving_x"] = ratio(median(keyMs), median(nonKeyMs))
	v["core.ism_mac_saving_x"] = ratio(median(keyMACs), median(nonKeyMACs))
	v["serve.queue_ms_p50"] = median(queue)
	v["serve.compute_ms_p50"] = median(compute)
	v["serve.compute_ms_p95"] = quantile(compute, 0.95)
	v["serve.residual_ms_p50"] = median(residual)
	v["serve.conn_wait_ms_p95"] = quantile(connWait, 0.95)
	v["serve.status_429"] = float64(s429)
	v["serve.status_5xx"] = float64(s5xx)
	v["serve.transport_errors"] = float64(transport)
	v["quality.degraded_frac"] = ratio(float64(degraded), float64(served))
	for _, r := range quality.DefaultLadder() {
		v["quality.rung_share."+r.Name] = ratio(float64(rungs[r.Name]), float64(served))
	}
	v["quality.miss_key_frac"] = ratio(float64(keyMisses), float64(misses))
	v["loadgen.timer_lag_ms_p95"] = quantile(lag, 0.95)
}

// payloadLayers times, off the clock and one at a time, the work the server
// does on each upload outside the pipeline: decoding the two PGM parts,
// rectifying the pair, and encoding a PFM reply.
func payloadLayers(out *outcome, payloads [][]camPayload, n int, calib *perception.Calibration) {
	var decode, rect, encode []float64
	for _, ps := range payloads {
		for _, p := range ps[:n] {
			t0 := time.Now()
			l, r, err := decodePair(p)
			if err != nil {
				out.problemf("payload decode: %v", err)
				return
			}
			t1 := time.Now()
			l, _ = calib.RectifyPair(l, r)
			t2 := time.Now()
			//asvlint:ignore droppederr io.Discard never fails; only the encode time is wanted
			imgproc.WritePFM(io.Discard, l)
			t3 := time.Now()
			decode = append(decode, ms(t1.Sub(t0)))
			rect = append(rect, ms(t2.Sub(t1)))
			encode = append(encode, ms(t3.Sub(t2)))
		}
	}
	out.values["imgproc.decode_pair_ms_p50"] = median(decode)
	out.values["perception.rectify_pair_ms_p50"] = median(rect)
	out.values["imgproc.encode_pfm_ms_p50"] = median(encode)
}
