// Command perfbench is the bwcs repository benchmark. It runs one named
// workload — two simulator sweeps and two live-overlay loads — for a
// fixed measured time, checks every output, and prints one JSON result
// line as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload sweep-paper --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate, traced invocation times the calls into each
// layer, writes a span dump and reports the per-layer metrics instead.
// README.md documents the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the stored reference aggregates were made
// with; every sweep run replays its first jobs at this seed in set-up.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees; every workload
// reports all of them with --trace 0.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"mem_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerDefs are the traced run's metrics. Every traced run reports
// all of them; a layer the workload never enters reads 0.
var perLayerDefs = []metricDef{
	{"randtree.us_per_sim", "us"},
	{"randtree.share", "ratio"},
	{"optimal.us_per_sim", "us"},
	{"optimal.share", "ratio"},
	{"engine.us_per_sim", "us"},
	{"engine.share", "ratio"},
	{"engine.ns_per_event", "ns"},
	{"engine.events_per_sim", "count"},
	{"engine.cancels_per_sim", "count"},
	{"engine.peak_pending", "count"},
	{"engine.sends_interrupted_per_sim", "count"},
	{"engine.requests_per_sim", "count"},
	{"engine.free_list_hit_rate", "ratio"},
	{"engine.allocs_per_sim", "count"},
	{"window.us_per_sim", "us"},
	{"window.share", "ratio"},
	{"experiments.agg_us_per_sim", "us"},
	{"experiments.idle_frac", "ratio"},
	{"experiments.scaling_eff", "ratio"},
	{"live.codec.ns_per_frame", "ns"},
	{"live.codec.allocs_per_frame", "count"},
	{"live.wire.frames_per_task", "count"},
	{"live.wire.bytes_per_task", "bytes"},
	{"live.wire.overhead_ratio", "ratio"},
	{"live.sendport.interrupts_per_task", "count"},
	{"live.sendport.forwarded_per_task", "count"},
	{"live.sched.requests_per_task", "count"},
	{"live.result.acks_per_task", "count"},
	{"live.result.replayed", "count"},
	{"live.result.deduped", "count"},
	{"live.stage.root_queue_us", "us"},
	{"live.stage.transfer_us", "us"},
	{"live.stage.child_queue_us", "us"},
	{"live.stage.compute_us", "us"},
	{"live.stage.result_us", "us"},
	{"live.stage.ack_us", "us"},
	{"live.compute.root_share", "ratio"},
	{"live.compute.busy_frac", "ratio"},
	{"live.recorder.dropped", "count"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     uint64
	measure  time.Duration
	smoke    bool           // tiny inputs, for the benchmark's own tests
	spanPath string         // traced runs only
	info     map[string]any // the run record so far: environment and flags
}

// report is a workload's outcome before it is rendered: raw values by
// metric name, op accounting, and the run record.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	correct   bool
	info      map[string]any
}

// newReport starts a workload's report; inputs describes the workload's
// inputs for the run record.
func newReport(cfg runConfig, inputs map[string]any) *report {
	for k, v := range inputs {
		cfg.info[k] = v
	}
	return &report{correct: true, info: cfg.info, values: make(map[string]float64)}
}

// account adds checked ops to the report and logs every failed check.
func (rep *report) account(ops, failed int64, problems []string) {
	rep.attempted += ops
	rep.failed += failed
	for _, p := range problems {
		rep.correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
}

// workload is one named benchmark input.
type workload struct {
	name    string
	untimed func(runConfig) (*report, error) // end-to-end run
	traced  func(runConfig) (*report, error) // per-layer run
}

func workloads() []workload {
	return []workload{
		sweepWorkload(sweepPaper),
		sweepWorkload(sweepScreen),
		overlayWorkload(overlaySmall),
		overlayWorkload(overlayBulk),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant instead of the end-to-end one")
	smoke := fs.Bool("smoke", false, "tiny inputs for a quick self-test")
	spans := fs.String("spans", "", "span dump path for --trace 1 (default .bench_build/spans/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	// GOMAXPROCS is set explicitly so the recorded parallelism is the one
	// the run had; before Go 1.25 the default ignores CPU quotas.
	runtime.GOMAXPROCS(runtime.NumCPU())

	info := environment()
	info["workload"], info["seed"], info["seconds"], info["trace"], info["smoke"] = w.name, *seed, *seconds, *trace, *smoke
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, smoke: *smoke, info: info}
	defs, fn := endToEndDefs, w.untimed
	if *trace == 1 {
		defs, fn = perLayerDefs, w.traced
		cfg.spanPath = *spans
		if cfg.spanPath == "" {
			cfg.spanPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		}
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := render(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"run": rep.info}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// render turns a report into the result line: exactly the metrics in
// defs, each with its unit. A layer the workload never entered reads 0;
// a value that is not a finite number is an error, not a result.
func render(rep *report, defs []metricDef) (result, error) {
	res := result{
		Correct:   rep.correct && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no ops attempted")
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range rep.values {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload produced undeclared metrics %v", extra)
	}
	return res, nil
}

// environment records the parallelism the run really had.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
