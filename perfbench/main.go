// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the ISM pipeline or the in-process depth server,
// checks every output against a serial core.Pipeline oracle off the clock,
// and prints one JSON result line:
//
//	go run . --workload ism_stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run is split into an untraced and a traced half and the result holds the
// per-layer metrics derived from the traced half's spans. README.md lists the
// workloads and what each metric is predicted to move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line printed last on standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics a --trace 0 run prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"frame_p50_ms", "ms"},
	{"frame_p95_ms", "ms"},
	{"ok_frac", "frac"},
	{"deadline_met_frac", "frac"},
	{"bad3_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints, with their units. A
// metric whose layer a workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"pipeline.key_frame_ms_p50", "ms"},
	{"pipeline.nonkey_frame_ms_p50", "ms"},
	{"pipeline.key_frames", "count"},
	{"pipeline.nonkey_frames", "count"},
	{"pipeline.nonkey_over_key", "x"},
	{"stereo.keymatch_ms_p50", "ms"},
	{"stereo.keymatch_calls", "count"},
	{"stereo.keymatch_mmacs", "MMAC"},
	{"flow.estimate_ms_p50", "ms"},
	{"flow.calls", "count"},
	{"flow.pair_wall_ms_p50", "ms"},
	{"flow.parallelism", "x"},
	{"core.propagate_refine_ms_p50", "ms"},
	{"core.nonkey_mmacs", "MMAC"},
	{"core.ism_ms_saving_x", "x"},
	{"core.ism_mac_saving_x", "x"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.compute_ms_p50", "ms"},
	{"serve.compute_ms_p95", "ms"},
	{"serve.residual_ms_p50", "ms"},
	{"serve.conn_wait_ms_p95", "ms"},
	{"serve.status_429", "count"},
	{"serve.status_5xx", "count"},
	{"serve.transport_errors", "count"},
	{"quality.degraded_frac", "frac"},
	{"quality.rung_share.full", "frac"},
	{"quality.rung_share.fixed", "frac"},
	{"quality.rung_share.stretch2", "frac"},
	{"quality.rung_share.half-res", "frac"},
	{"quality.rung_share.quarter-res", "frac"},
	{"quality.miss_key_frac", "frac"},
	{"imgproc.decode_pair_ms_p50", "ms"},
	{"imgproc.encode_pfm_ms_p50", "ms"},
	{"perception.rectify_pair_ms_p50", "ms"},
	{"loadgen.timer_lag_ms_p95", "ms"},
	{"trace.overhead_pct", "%"},
}

// outcome is what a workload run hands back: frames attempted and failed,
// any correctness problem found, and the metric values by name. Names not
// set read 0.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"ism_stream":       runISMStream,
	"key_only":         runKeyOnly,
	"serve_cameras":    func(o options) (*outcome, error) { return runServe(o, false) },
	"serve_besteffort": func(o options) (*outcome, error) { return runServe(o, true) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o, err := workloads[opt.workload](opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", opt.workload, p)
	}
	rep := buildReport(o, opt.trace)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	summarize(w, opt, rep)
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	spans := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return options{}, errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spans,
	}, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildReport selects the metric set for the run mode. The run is correct
// only when no frame failed and no check found a problem.
func buildReport(o *outcome, traced bool) report {
	set := endToEnd
	if traced {
		set = perLayer
	}
	rep := report{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		rep.Metrics[m.name] = metric{Value: o.values[m.name], Unit: m.unit}
	}
	return rep
}

// summarize prints the metrics one per line, in declaration order, ahead of
// the JSON line.
func summarize(w io.Writer, opt options, rep report) {
	set := endToEnd
	if opt.trace {
		set = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed, correct=%v, GOMAXPROCS=%d\n",
		opt.workload, opt.seed, rep.Attempted, rep.Failed, rep.Correct, runtime.GOMAXPROCS(0))
	for _, m := range set {
		fmt.Fprintf(w, "  %-32s %12.4f %s\n", m.name, rep.Metrics[m.name].Value, m.unit)
	}
}

// resetPeakRSS collects garbage, returns free memory to the OS and resets
// the kernel's resident high-water mark, so that peakRSSMB covers what
// follows — the measured phase — and not the garbage of repeated set-ups.
// Where the reset is not supported the mark covers the whole process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	//asvlint:ignore droppederr without the reset the mark covers the whole run, which is still a valid peak
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident high-water mark in MiB, from
// /proc/self/status, falling back to the Go runtime's reserved memory where
// that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// timedSetup runs setup n times and returns the last result and the median
// wall time. Every call must produce the same inputs; the earlier results
// are discarded through release.
func timedSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			release(v)
		}
		last = v
	}
	return last, median(times), nil
}
