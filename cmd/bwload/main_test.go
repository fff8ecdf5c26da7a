package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWavesBothCodecs runs a small in-process tree over the binary
// framing and checks the JSON report is well-formed with real traffic in
// it.
func TestWavesBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		var out bytes.Buffer
		err := run([]string{
			"-children", "2", "-tasks", "16", "-waves", "2", "-warmup", "1",
			"-size", "512", "-root-compute", "5ms", "-json", "-",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report not JSON: %v\n%s", err, out.String())
		}
		if rep.Schema != "bwcs-load/v2" || rep.Mode != "waves" {
			t.Fatalf("report header = %q/%q", rep.Schema, rep.Mode)
		}
		if rep.FramesSent == 0 || rep.FramesPerSec <= 0 {
			t.Fatalf("no wire traffic measured: %+v", rep)
		}
		if len(rep.WaveMS) != 2 {
			t.Fatalf("wave samples = %d, want 2", len(rep.WaveMS))
		}
		if rep.P99WaveMS < rep.P50WaveMS {
			t.Fatalf("p99 %f < p50 %f", rep.P99WaveMS, rep.P50WaveMS)
		}
	})
}

// TestWireOnlyBothCodecs exercises the engine-free data-plane mode over
// the binary framing.
func TestWireOnlyBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		var out bytes.Buffer
		err := run([]string{
			"-wire-only", "-children", "2", "-wire-frames", "500",
			"-size", "256", "-json", "-",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report not JSON: %v\n%s", err, out.String())
		}
		if rep.Schema != "bwcs-load/v2" || rep.Mode != "wire-only" {
			t.Fatalf("report header = %q/%q", rep.Schema, rep.Mode)
		}
		if rep.FramesSent != 1000 {
			t.Fatalf("FramesSent = %d, want 1000 (2 links x 500)", rep.FramesSent)
		}
		if rep.FramesPerSec <= 0 {
			t.Fatalf("frames/sec not measured: %+v", rep)
		}
	})
}

// TestSLOViolationFails pins the gate: an impossible frames/sec floor
// must produce a violation and a non-nil error.
func TestSLOViolationFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-wire-only", "-children", "1", "-wire-frames", "100", "-size", "64",
		"-slo-frames-per-sec", "1e18",
	}, &out)
	if err == nil {
		t.Fatalf("impossible SLO passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SLO VIOLATED") {
		t.Fatalf("violation not reported:\n%s", out.String())
	}
}
