package main

import (
	"flag"
	"time"
)

// loadConfig is the parsed flag set for one bwload run.
type loadConfig struct {
	children    int
	tasks       int
	waves       int
	warmup      int
	size        int
	chunk       int
	batch       int
	buffers     int
	compute     time.Duration
	rootCompute time.Duration
	waveTimeout time.Duration
	jsonOut     string
	sloP99      time.Duration
	sloFPS      float64
	wireOnly    bool
	wireFrames  int
}

func newFlagSet() *flag.FlagSet {
	return flag.NewFlagSet("bwload", flag.ContinueOnError)
}

func parseFlags(fs *flag.FlagSet, args []string) (*loadConfig, error) {
	cfg := &loadConfig{}
	fs.IntVar(&cfg.children, "children", 2, "worker nodes under the root")
	fs.IntVar(&cfg.tasks, "tasks", 256, "tasks per wave")
	fs.IntVar(&cfg.waves, "waves", 8, "measured waves")
	fs.IntVar(&cfg.warmup, "warmup", 1, "unmeasured warmup waves")
	fs.IntVar(&cfg.size, "size", 256, "task payload bytes (results echo it back)")
	fs.IntVar(&cfg.chunk, "chunk", 4096, "bytes per transfer chunk")
	fs.IntVar(&cfg.batch, "chunk-batch", 0, "chunks per send-port turn on binary links (0 = default)")
	fs.IntVar(&cfg.buffers, "buffers", 3, "task buffers per node (the paper's FB)")
	fs.DurationVar(&cfg.compute, "compute", 0, "per-task stall at each child (0 = wire-bound)")
	fs.DurationVar(&cfg.rootCompute, "root-compute", 25*time.Millisecond,
		"per-task stall at the root, kept slow so tasks cross the wire")
	fs.DurationVar(&cfg.waveTimeout, "wave-timeout", 2*time.Minute, "per-wave deadline")
	fs.StringVar(&cfg.jsonOut, "json", "", "write the JSON report to this file (\"-\" = stdout)")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail when p99 wave latency exceeds this (0 = off)")
	fs.Float64Var(&cfg.sloFPS, "slo-frames-per-sec", 0, "fail when wire frames/sec falls below this (0 = off)")
	fs.BoolVar(&cfg.wireOnly, "wire-only", false,
		"measure the raw data plane (framing + codec + loopback, no scheduling engine) instead of running task waves")
	fs.IntVar(&cfg.wireFrames, "wire-frames", 50_000, "wire-only: chunk frames to stream per link")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}
