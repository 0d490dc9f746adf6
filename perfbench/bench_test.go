package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/pipeline"
)

// bruteQuantile is the nearest-rank definition spelled out: the smallest
// sample x with at least q·n samples ≤ x.
func bruteQuantile(xs []float64, q float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		n := 0
		for _, y := range xs {
			if y <= x {
				n++
			}
		}
		if float64(n) >= q*float64(len(xs)) && x < best {
			best = x
		}
	}
	return best
}

func TestQuantileIsExactSampleQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			// Heavy-tailed with ties, like frame latencies.
			xs[i] = math.Round(math.Exp(rng.NormFloat64()) * 10)
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
			got := quantile(xs, q)
			if want := bruteQuantile(xs, q); q > 0 && got != want {
				t.Fatalf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
			}
			if got < lo || got > hi {
				t.Fatalf("quantile(%v, %v) = %v outside [%v, %v]", xs, q, got, lo, hi)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of no samples = %v, want 0", got)
	}
	xs := []float64{3, 1, 2}
	if got := quantile(xs, 0.5); got != 2 || xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("quantile(%v, 0.5) = %v; want 2 and the input unchanged", xs, got)
	}
}

// TestDecoratorsAreBitTransparent runs one short ISM stream twice, plain and
// through the tracing decorators, and requires identical results frame by
// frame — disparity bits, key decision and charged MACs — plus one span per
// decorated call.
func TestDecoratorsAreBitTransparent(t *testing.T) {
	seq := dataset.Generate(dataset.SceneFlowLike(64, 48, 6, 3)[0])
	matcher, cfg := offlineMatcher(), offlineConfig(3)
	tr := newTracer("test")
	tcfg := cfg
	tcfg.ME = tracedME{inner: cfg.MotionSource(), tr: tr}
	tmatcher := tracedMatcher{inner: matcher, tr: tr}
	if tmatcher.Name() != matcher.Name() || tmatcher.MACs(64, 48) != matcher.MACs(64, 48) {
		t.Fatal("traced matcher does not delegate Name/MACs")
	}
	if tcfg.ME.Name() != cfg.MotionSource().Name() || tcfg.ME.MACs(64, 48) != cfg.MotionSource().MACs(64, 48) {
		t.Fatal("traced motion estimator does not delegate Name/MACs")
	}
	// NonKeyBreakdown prices a FarnebackME by its conv/pointwise split and a
	// wrapped one by MACs; the totals must agree.
	if a, b := core.New(nil, cfg).NonKeyMACs(64, 48), core.New(nil, tcfg).NonKeyMACs(64, 48); a != b {
		t.Fatalf("non-key MACs %d plain vs %d traced", a, b)
	}

	plain, traced := core.New(matcher, cfg), core.New(tmatcher, tcfg)
	var keys, nonKeys int
	for i, f := range seq.Frames {
		want := pipeline.ProcessFrame(plain, matcher, f.Left, f.Right, nil)
		got := pipeline.ProcessFrame(traced, tmatcher, f.Left, f.Right, nil)
		if got.IsKey != want.IsKey || got.MACs != want.MACs || hashImage(got.Disparity) != hashImage(want.Disparity) {
			t.Fatalf("frame %d: traced result differs (key %v/%v, MACs %d/%d)", i, got.IsKey, want.IsKey, got.MACs, want.MACs)
		}
		if want.IsKey {
			keys++
		} else {
			nonKeys++
		}
	}
	counts := map[string]int{}
	for _, s := range tr.snapshot() {
		counts[s.Name]++
	}
	if counts[spanKeyMatch] != keys || counts[spanFlow] != 2*nonKeys {
		t.Fatalf("spans %v, want %d keymatch and %d flow", counts, keys, 2*nonKeys)
	}
}

func TestSelfTimeOnHandBuiltTrace(t *testing.T) {
	frame := span{ID: 0, Name: spanFrame, Start: 0, End: 100, Parent: -1}
	kids := []span{
		{ID: 1, Name: spanFlow, Start: 10, End: 50, Parent: 0},
		{ID: 2, Name: spanFlow, Start: 12, End: 55, Parent: 0}, // overlaps the first
		{ID: 3, Name: spanKeyMatch, Start: 60, End: 70, Parent: 0},
		{ID: 4, Name: spanKeyMatch, Start: 95, End: 120, Parent: 0}, // runs past the frame
	}
	// Covered: [10,55] + [60,70] + [95,100] = 45 + 10 + 5.
	if got := covered(frame, kids); got != 60 {
		t.Fatalf("covered = %v, want 60", got)
	}
	if got := selfTime(frame, kids); got != 40 {
		t.Fatalf("self time = %v, want 40", got)
	}
	if got := selfTime(frame, nil); got != 100 {
		t.Fatalf("self time without children = %v, want 100", got)
	}
	all := append([]span{frame}, kids...)
	if err := checkNesting(all[:4]); err != nil {
		t.Fatalf("nested spans rejected: %v", err)
	}
	if err := checkNesting(all); err == nil {
		t.Fatal("a child outside its parent was not reported")
	}
	if g := children(all); len(g[0]) != 4 {
		t.Fatalf("children(frame) = %d spans, want 4", len(g[0]))
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric and workload
// names in step with the BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "key_only", "--trace", "2"},
		{"--workload", "key_only", "--seconds", "0"},
		{"--workload", "key_only", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Fatalf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly in both modes and requires
// a correct result carrying exactly the mode's metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "5", "--seconds", "0.6", "--trace", trace, "--spans-dir", t.TempDir()}, &out, &errb)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%s: exit %d, last line not JSON: %v\n%s", w, trace, code, err, errb.String())
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if code != 0 || !rep.Correct || rep.Attempted == 0 || len(rep.Metrics) != len(want) {
				t.Fatalf("%s trace=%s: exit %d, report %+v\n%s", w, trace, code, rep, errb.String())
			}
			if trace == "0" && (rep.Metrics["frame_p50_ms"].Value <= 0 || rep.Metrics["setup_s"].Value <= 0) {
				t.Fatalf("%s: zero timing in %+v", w, rep.Metrics)
			}
		}
	}
}

// However short the measured phase, the offline loop attempts one frame, so
// a result never reports zero attempts.
func TestMeasureOfflineAttemptsAFrame(t *testing.T) {
	recs, _ := measureOffline(keyOnlyPool(1)[:1], offlineMatcher(), offlineConfig(1), time.Nanosecond, nil)
	if len(recs) != 1 {
		t.Fatalf("%d frames measured, want 1", len(recs))
	}
}
