package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"sync"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/imgproc"
	"asv/internal/pipeline"
	"asv/internal/stereo"
)

// Offline workloads run 320×192 frames serially through
// pipeline.ProcessFrame as a closed loop, cycling over a fixed input pool
// until the measured phase ends. The pools are small enough that a 15 s run
// covers each at least once at the baseline speed (README.md), so bad3_pct
// is scored on the same frames however fast the pipeline gets, and made of
// many short scenes, so it does not hinge on one scene.
const (
	offW, offH = 320, 192

	ismSeqs      = 24 // ism_stream: SceneFlow-like sequences of ismSeqFrames,
	ismSeqFrames = 4  // one PW-4 window each
	keyPairs     = 60 // key_only: independent KITTI-like pairs
	setupRepeats = 3
)

// pair is one stereo input with its ground-truth disparity.
type pair struct{ left, right, gt *imgproc.Image }

// offlineMatcher is the key-frame matcher of both offline workloads: 8-path
// fixed-point SGM over 48 disparities.
func offlineMatcher() core.KeyMatcher {
	opt := stereo.DefaultSGMOptions()
	opt.MaxDisp = 48
	opt.Fixed = true
	return core.SGMMatcher{Opt: opt}
}

// offlineConfig is the ISM configuration: Farneback flow at FlowScale 2 and
// fixed-point guided refine, with propagation window pw.
func offlineConfig(pw int) core.Config {
	cfg := core.DefaultConfig()
	cfg.PW = pw
	cfg.BM.Fixed = true
	return cfg
}

func ismStreamPool(seed int64) [][]pair {
	cfgs := dataset.SceneFlowLike(offW, offH, ismSeqFrames, seed)[:ismSeqs]
	pool := make([][]pair, len(cfgs))
	for i, c := range cfgs {
		for _, f := range dataset.Generate(c).Frames {
			pool[i] = append(pool[i], pair{f.Left, f.Right, f.GT})
		}
	}
	return pool
}

// keyOnlyPool makes each pair its own one-frame sequence: under PW-1 every
// frame is a key frame and no state carries between them.
func keyOnlyPool(seed int64) [][]pair {
	cfgs := dataset.KITTILike(offW, offH, keyPairs, seed)
	pool := make([][]pair, len(cfgs))
	for i, c := range cfgs {
		c.FrameCount = 1
		f := dataset.Generate(c).Frames[0]
		pool[i] = []pair{{f.Left, f.Right, f.GT}}
	}
	return pool
}

func runISMStream(o options) (*outcome, error) { return runOffline(o, 4, ismStreamPool) }
func runKeyOnly(o options) (*outcome, error)   { return runOffline(o, 1, keyOnlyPool) }

// frameRec is one measured frame.
type frameRec struct {
	seq, idx int // position in the pool
	key      bool
	macs     int64
	dur      time.Duration
	hash     uint64
	bad3     float64
	span     int // frame span id in a traced pass, else -1
}

// oracleFrame is the serial core.Pipeline.Process result for one pool frame.
type oracleFrame struct {
	key  bool
	macs int64
	hash uint64
}

func runOffline(o options, pw int, makePool func(int64) [][]pair) (*outcome, error) {
	pool, setupS, err := timedSetup(setupRepeats, func() ([][]pair, error) { return makePool(o.seed), nil }, func([][]pair) {})
	if err != nil {
		return nil, err
	}
	matcher, cfg := offlineMatcher(), offlineConfig(pw)
	out := newOutcome()
	out.values["setup_s"] = setupS

	if !o.trace {
		resetPeakRSS()
		recs, elapsed := measureOffline(pool, matcher, cfg, o.seconds, nil)
		out.values["peak_rss_mb"] = peakRSSMB()
		oracle := offlineOracle(pool, recs, matcher, cfg)
		checkOffline(out, "run", recs, oracle)
		offlineEndToEnd(out, recs, elapsed)
		return out, nil
	}

	// Traced mode: an untraced half, then a traced half over the same
	// inputs. Both are checked against the oracle, so the traced
	// disparities equal the untraced ones.
	half := o.seconds / 2
	plain, _ := measureOffline(pool, matcher, cfg, half, nil)
	tr := newTracer(o.workload)
	tcfg := cfg
	tcfg.ME = tracedME{inner: cfg.MotionSource(), tr: tr}
	traced, _ := measureOffline(pool, tracedMatcher{inner: matcher, tr: tr}, tcfg, half, tr)
	oracle := offlineOracle(pool, append(append([]frameRec(nil), plain...), traced...), matcher, cfg)
	checkOffline(out, "untraced half", plain, oracle)
	checkOffline(out, "traced half", traced, oracle)

	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		out.problemf("trace: %v", err)
	}
	offlineLayers(out, spans, traced, matcher.MACs(offW, offH))
	out.values["trace.overhead_pct"] = 100 * (ratio(median(frameMs(traced)), median(frameMs(plain))) - 1)
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeJSONL(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return out, nil
}

// measureOffline is the measured phase: frames go one at a time through
// pipeline.ProcessFrame, each sequence on a fresh pipeline, cycling over the
// pool until d has passed. With a tracer, each frame is a span the
// decorators' spans attach to. At least one frame is measured.
func measureOffline(pool [][]pair, matcher core.KeyMatcher, cfg core.Config, d time.Duration, tr *tracer) ([]frameRec, time.Duration) {
	var recs []frameRec
	start := time.Now()
	for {
		for s, seq := range pool {
			p := core.New(matcher, cfg)
			for i, f := range seq {
				if len(recs) > 0 && time.Since(start) >= d {
					return recs, time.Since(start)
				}
				id := -1
				if tr != nil {
					id = tr.begin(spanFrame, len(recs), -1)
					tr.setFrame(id, len(recs))
				}
				t0 := time.Now()
				res := pipeline.ProcessFrame(p, matcher, f.left, f.right, nil)
				dur := time.Since(t0)
				if tr != nil {
					tr.setFrame(-1, -1)
					tr.end(id)
				}
				recs = append(recs, frameRec{
					seq: s, idx: i, key: res.IsKey, macs: res.MACs, dur: dur,
					hash: hashImage(res.Disparity), bad3: stereo.ThreePixelError(res.Disparity, f.gt), span: id,
				})
			}
		}
	}
}

// offlineOracle runs every sequence the records touched through a serial
// core.Pipeline.Process, on up to two goroutines (one per sequence).
func offlineOracle(pool [][]pair, recs []frameRec, matcher core.KeyMatcher, cfg core.Config) [][]oracleFrame {
	need := make([]int, len(pool)) // frames of each sequence to replay
	for _, r := range recs {
		need[r.seq] = max(need[r.seq], r.idx+1)
	}
	oracle := make([][]oracleFrame, len(pool))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for s := range pool {
		if need[s] == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := core.New(matcher, cfg)
			frames := make([]oracleFrame, need[s])
			for i := range frames {
				res := p.Process(pool[s][i].left, pool[s][i].right)
				frames[i] = oracleFrame{key: res.IsKey, macs: res.MACs, hash: hashImage(res.Disparity)}
			}
			oracle[s] = frames
		}(s)
	}
	wg.Wait()
	return oracle
}

// checkOffline compares each record with the oracle; a mismatch fails the
// frame.
func checkOffline(out *outcome, phase string, recs []frameRec, oracle [][]oracleFrame) {
	for _, r := range recs {
		out.attempted++
		want := oracle[r.seq][r.idx]
		if r.hash != want.hash || r.key != want.key || r.macs != want.macs {
			out.failed++
			out.problemf("%s: sequence %d frame %d differs from the serial oracle (key %v/%v, MACs %d/%d, disparity hash %x/%x)",
				phase, r.seq, r.idx, r.key, want.key, r.macs, want.macs, r.hash, want.hash)
		}
	}
}

func offlineEndToEnd(out *outcome, recs []frameRec, elapsed time.Duration) {
	durs := frameMs(recs)
	ok := float64(out.attempted-out.failed) / float64(max(out.attempted, 1))
	out.values["frames_per_s"] = float64(len(recs)) / elapsed.Seconds()
	out.values["frame_p50_ms"] = quantile(durs, 0.5)
	out.values["frame_p95_ms"] = quantile(durs, 0.95)
	out.values["ok_frac"] = ok
	// An offline closed loop has no due time, hence no latency limit: every
	// correct frame meets it.
	out.values["deadline_met_frac"] = ok
	out.values["bad3_pct"] = distinctBad3(recs)
}

// distinctBad3 averages the three-pixel error over the distinct pool frames
// the run returned, so a pool covered twice is not weighted twice.
func distinctBad3(recs []frameRec) float64 {
	seen := make(map[[2]int]bool)
	var sum float64
	for _, r := range recs {
		k := [2]int{r.seq, r.idx}
		if !seen[k] {
			seen[k] = true
			sum += r.bad3
		}
	}
	return ratio(sum, float64(len(seen)))
}

// frameMs returns each record's ProcessFrame wall time in ms.
func frameMs(recs []frameRec) []float64 {
	durs := make([]float64, len(recs))
	for i, r := range recs {
		durs[i] = ms(r.dur)
	}
	return durs
}

// offlineLayers derives the per-layer metrics of an offline traced pass
// from its spans: key and non-key frame spans, the keymatch and flow spans
// under them, and each non-key frame's self time (propagate + refine).
func offlineLayers(out *outcome, spans []span, recs []frameRec, keyMACs int64) {
	kids := children(spans)
	var keyMs, nonKeyMs, matchMs, flowMs, pairMs, par, propMs []float64
	var nonKeyMACs int64
	for _, r := range recs {
		fs := spans[r.span]
		if r.key {
			keyMs = append(keyMs, ms(fs.dur()))
			continue
		}
		nonKeyMs = append(nonKeyMs, ms(fs.dur()))
		nonKeyMACs = r.macs
		var lo, hi, sum time.Duration = math.MaxInt64, 0, 0
		for _, k := range kids[r.span] {
			if k.Name != spanFlow {
				continue
			}
			lo, hi, sum = min(lo, k.Start), max(hi, k.End), sum+k.dur()
		}
		if hi > lo {
			pairMs = append(pairMs, ms(hi-lo))
			par = append(par, float64(sum)/float64(hi-lo))
		}
		propMs = append(propMs, ms(selfTime(fs, kids[r.span])))
	}
	for _, s := range spans {
		switch s.Name {
		case spanKeyMatch:
			matchMs = append(matchMs, ms(s.dur()))
		case spanFlow:
			flowMs = append(flowMs, ms(s.dur()))
		}
	}
	v := out.values
	v["pipeline.key_frame_ms_p50"] = median(keyMs)
	v["pipeline.nonkey_frame_ms_p50"] = median(nonKeyMs)
	v["pipeline.key_frames"] = float64(len(keyMs))
	v["pipeline.nonkey_frames"] = float64(len(nonKeyMs))
	v["pipeline.nonkey_over_key"] = ratio(median(nonKeyMs), median(keyMs))
	v["stereo.keymatch_ms_p50"] = median(matchMs)
	v["stereo.keymatch_calls"] = float64(len(matchMs))
	if len(matchMs) > 0 {
		v["stereo.keymatch_mmacs"] = float64(keyMACs) / 1e6
	}
	v["flow.estimate_ms_p50"] = median(flowMs)
	v["flow.calls"] = float64(len(flowMs))
	v["flow.pair_wall_ms_p50"] = median(pairMs)
	v["flow.parallelism"] = median(par)
	v["core.propagate_refine_ms_p50"] = median(propMs)
	v["core.nonkey_mmacs"] = float64(nonKeyMACs) / 1e6
	v["core.ism_ms_saving_x"] = ratio(median(keyMs), median(nonKeyMs))
	if nonKeyMACs > 0 && len(keyMs) > 0 {
		v["core.ism_mac_saving_x"] = float64(keyMACs) / float64(nonKeyMACs)
	}
}

// hashImage is an FNV-1a digest of an image's size and exact float bits;
// equal digests stand in for bit-identical images.
func hashImage(im *imgproc.Image) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	put(uint32(im.W))
	put(uint32(im.H))
	for _, v := range im.Pix {
		put(math.Float32bits(v))
	}
	return h.Sum64()
}
