// Command bwload drives a sustained synthetic workload through an
// in-process live overlay — one root, N children — and reports wire
// throughput, wave latency percentiles, and allocation pressure. It is
// the repository's load generator for the data plane: the same tree,
// wire framing, and chunking knobs as a deployed bwnode overlay, but with
// every node in one process so frames/sec and allocs/task are
// measurable without network noise.
//
// The workload is dispatched in waves: each wave submits -tasks tasks of
// -size bytes (results echo the payload back, so both directions carry
// it) and waits for completion. Wave durations land in a histogram; the
// report carries p50/p99 from its buckets. The first -warmup waves are
// excluded from every measurement.
//
// SLOs turn the report into a gate: -slo-p99 bounds the p99 wave
// latency and -slo-frames-per-sec sets a wire throughput floor; a
// violated SLO makes bwload exit non-zero, so a CI job can assert the
// data plane's performance, not just its correctness.
//
//	bwload -children 2 -tasks 256 -waves 8 -json -
//	bwload -wire-only -slo-frames-per-sec 5000
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"bwcs/internal/metrics"
	"bwcs/live"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwload:", err)
		os.Exit(1)
	}
}

// reportSchema versions the -json report. v2 dropped the codec field:
// the live plane speaks one wire codec.
const reportSchema = "bwcs-load/v2"

// report is the machine-readable run summary (-json).
type report struct {
	Schema   string `json:"schema"` // "bwcs-load/v2"
	Mode     string `json:"mode"`   // "waves" or "wire-only"
	Children int    `json:"children"`
	Tasks    int    `json:"tasksPerWave"`
	Waves    int    `json:"waves"`
	Size     int    `json:"payloadBytes"`
	Chunk    int    `json:"chunkBytes"`
	Batch    int    `json:"chunkBatch"`

	TasksPerSec    float64 `json:"tasksPerSec"`
	FramesPerSec   float64 `json:"framesPerSec"`
	BytesPerSec    float64 `json:"bytesPerSec"`
	P50WaveMS      float64 `json:"p50WaveMs,omitempty"`
	P99WaveMS      float64 `json:"p99WaveMs,omitempty"`
	AllocsPerTask  float64 `json:"allocsPerTask,omitempty"`
	AllocsPerFrame float64 `json:"allocsPerFrame,omitempty"`
	FramesSent     int64   `json:"framesSent"`
	BytesSent      int64   `json:"bytesSent"`
	WaveMS         []int64 `json:"waveMs,omitempty"`

	SLOViolations []string `json:"sloViolations,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := newFlagSet()
	cfg, err := parseFlags(fs, args)
	if err != nil {
		return err
	}

	if cfg.wireOnly {
		return runWireOnly(cfg, out)
	}

	// The children echo after an optional stall; the root's compute is
	// kept slow so nearly every task crosses the wire — bwload measures
	// the data plane, not local compute.
	childCompute := func(t live.Task) ([]byte, error) {
		if cfg.compute > 0 {
			time.Sleep(cfg.compute)
		}
		return t.Payload, nil
	}
	rootCompute := func(t live.Task) ([]byte, error) {
		time.Sleep(cfg.rootCompute)
		return t.Payload, nil
	}

	rootOpts := []live.Option{
		live.WithListen("127.0.0.1:0"),
		live.WithCompute(rootCompute),
		live.WithBuffers(cfg.buffers),
		live.WithChunkSize(cfg.chunk),
	}
	if cfg.batch != 0 {
		rootOpts = append(rootOpts, live.WithChunkBatch(cfg.batch))
	}
	root, err := live.Start("root", rootOpts...)
	if err != nil {
		return err
	}
	defer root.Close()

	nodes := []*live.Node{root}
	for i := 0; i < cfg.children; i++ {
		opts := []live.Option{
			live.WithParent(root.Addr()),
			live.WithCompute(childCompute),
			live.WithBuffers(cfg.buffers),
			live.WithChunkSize(cfg.chunk),
		}
		if cfg.batch != 0 {
			opts = append(opts, live.WithChunkBatch(cfg.batch))
		}
		w, err := live.Start(fmt.Sprintf("w%d", i+1), opts...)
		if err != nil {
			return err
		}
		defer w.Close()
		nodes = append(nodes, w)
	}

	reg := metrics.NewRegistry()
	waveHist := reg.Histogram("load_wave_milliseconds",
		"wall-clock duration of one completed task wave", msBounds())

	wave := func(n int) (time.Duration, error) {
		work := make([]live.Task, cfg.tasks)
		for i := range work {
			payload := make([]byte, cfg.size)
			for j := range payload {
				payload[j] = byte((n+i)*j + i)
			}
			work[i] = live.Task{ID: uint64(i + 1), Payload: payload}
		}
		start := time.Now()
		results, err := root.RunTimeout(work, cfg.waveTimeout)
		if err != nil {
			return 0, fmt.Errorf("wave %d: %w", n, err)
		}
		if len(results) != cfg.tasks {
			return 0, fmt.Errorf("wave %d: %d results, want %d", n, len(results), cfg.tasks)
		}
		return time.Since(start), nil
	}

	for n := 0; n < cfg.warmup; n++ {
		if _, err := wave(n); err != nil {
			return err
		}
	}

	framesBefore, bytesBefore := wireTotals(nodes)
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	measureStart := time.Now()

	waveMS := make([]int64, 0, cfg.waves)
	for n := 0; n < cfg.waves; n++ {
		d, err := wave(cfg.warmup + n)
		if err != nil {
			return err
		}
		ms := d.Milliseconds()
		waveHist.Observe(ms)
		waveMS = append(waveMS, ms)
	}

	elapsed := time.Since(measureStart)
	framesAfter, bytesAfter := wireTotals(nodes)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	totalTasks := cfg.waves * cfg.tasks
	hist := histFamily(reg.Snapshot(), "load_wave_milliseconds")
	rep := report{
		Schema:   reportSchema,
		Mode:     "waves",
		Children: cfg.children,
		Tasks:    cfg.tasks,
		Waves:    cfg.waves,
		Size:     cfg.size,
		Chunk:    cfg.chunk,
		Batch:    cfg.batch,

		TasksPerSec:   float64(totalTasks) / elapsed.Seconds(),
		FramesPerSec:  float64(framesAfter-framesBefore) / elapsed.Seconds(),
		BytesPerSec:   float64(bytesAfter-bytesBefore) / elapsed.Seconds(),
		P50WaveMS:     quantile(hist, 0.50),
		P99WaveMS:     quantile(hist, 0.99),
		AllocsPerTask: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(totalTasks),
		FramesSent:    framesAfter - framesBefore,
		BytesSent:     bytesAfter - bytesBefore,
		WaveMS:        waveMS,
	}

	if cfg.sloP99 > 0 && rep.P99WaveMS > float64(cfg.sloP99.Milliseconds()) {
		rep.SLOViolations = append(rep.SLOViolations,
			fmt.Sprintf("p99 wave latency %.0fms exceeds SLO %v", rep.P99WaveMS, cfg.sloP99))
	}
	if cfg.sloFPS > 0 && rep.FramesPerSec < cfg.sloFPS {
		rep.SLOViolations = append(rep.SLOViolations,
			fmt.Sprintf("%.0f frames/sec below SLO floor %.0f", rep.FramesPerSec, cfg.sloFPS))
	}

	return emit(cfg, &rep, out, func(w io.Writer) {
		fmt.Fprintf(w, "%d children, %d waves x %d tasks x %dB:\n",
			cfg.children, cfg.waves, cfg.tasks, cfg.size)
		fmt.Fprintf(w, "  %.0f tasks/s, %.0f frames/s, %.1f MB/s wire\n",
			rep.TasksPerSec, rep.FramesPerSec, rep.BytesPerSec/1e6)
		fmt.Fprintf(w, "  wave p50 %.0fms, p99 %.0fms; %.0f allocs/task\n",
			rep.P50WaveMS, rep.P99WaveMS, rep.AllocsPerTask)
	})
}

// runWireOnly measures the raw data plane through live.WireBench: the
// same framed connections the overlay runs on, minus the scheduling
// engine — the codec's cost without round-trip noise.
func runWireOnly(cfg *loadConfig, out io.Writer) error {
	batch := cfg.batch
	if batch == 0 {
		batch = 8
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, err := live.WireBench(live.CodecBinary, cfg.children, cfg.wireFrames, cfg.size, batch)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&msAfter)
	rep := report{
		Schema:   reportSchema,
		Mode:     "wire-only",
		Children: cfg.children,
		Size:     cfg.size,
		Chunk:    cfg.chunk,
		Batch:    batch,

		FramesPerSec:   res.FramesPerSec(),
		BytesPerSec:    res.BytesPerSec(),
		AllocsPerFrame: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Frames),
		FramesSent:     res.Frames,
		BytesSent:      res.Bytes,
	}
	if cfg.sloFPS > 0 && rep.FramesPerSec < cfg.sloFPS {
		rep.SLOViolations = append(rep.SLOViolations,
			fmt.Sprintf("%.0f frames/sec below SLO floor %.0f", rep.FramesPerSec, cfg.sloFPS))
	}
	return emit(cfg, &rep, out, func(w io.Writer) {
		fmt.Fprintf(w, "wire only, %d links x %d frames x %dB (batch %d):\n",
			cfg.children, cfg.wireFrames, cfg.size, batch)
		fmt.Fprintf(w, "  %.0f frames/s, %.1f MB/s wire, %.2f allocs/frame\n",
			rep.FramesPerSec, rep.BytesPerSec/1e6, rep.AllocsPerFrame)
	})
}

// emit writes the report — JSON to -json's target, the human summary
// otherwise — and turns SLO violations into a non-zero exit.
func emit(cfg *loadConfig, rep *report, out io.Writer, text func(io.Writer)) error {
	if cfg.jsonOut != "" {
		w := out
		if cfg.jsonOut != "-" {
			f, err := os.Create(cfg.jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if cfg.jsonOut != "-" {
		text(out)
	}
	for _, v := range rep.SLOViolations {
		fmt.Fprintln(out, "SLO VIOLATED:", v)
	}
	if len(rep.SLOViolations) > 0 {
		return fmt.Errorf("%d SLO violation(s)", len(rep.SLOViolations))
	}
	return nil
}

// wireTotals sums the wire volume counters over every node in the tree.
// Each node counts both directions of its own links, so the total counts
// every frame twice (once sent, once received) — deltas and ratios are
// what matter.
func wireTotals(nodes []*live.Node) (frames, bytes int64) {
	for _, n := range nodes {
		s := n.Stats()
		frames += s.FramesSent
		bytes += s.BytesSent
	}
	return frames, bytes
}

// msBounds is an exponential millisecond bucket ladder, 1ms..~2min.
func msBounds() []int64 {
	var b []int64
	for v := int64(1); v <= 128_000; v *= 2 {
		b = append(b, v)
	}
	return b
}

// histFamily pulls one histogram family out of a snapshot.
func histFamily(snap metrics.Snapshot, name string) metrics.Family {
	for _, f := range snap {
		if f.Name == name {
			return f
		}
	}
	return metrics.Family{}
}

// quantile estimates a quantile from cumulative histogram buckets: the
// smallest bound whose cumulative count covers q of the observations
// (the Prometheus upper-bound convention, without interpolation — wave
// counts are small, so a bucket bound is the honest answer).
func quantile(f metrics.Family, q float64) float64 {
	if f.Count == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(f.Count)))
	if need < 1 {
		need = 1
	}
	for i, cum := range f.Buckets {
		if cum >= need {
			return float64(f.Bounds[i])
		}
	}
	// Observations beyond the last bound: report the mean of the
	// overflow as a best effort.
	return float64(f.Sum) / float64(f.Count)
}
