package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bwcs/live"
)

var update = flag.Bool("update", false, "rewrite reference.json from the current program")

// TestReferenceAggregates recomputes the reference jobs every sweep run
// checks in set-up and compares them with reference.json; -update
// rewrites the file.
func TestReferenceAggregates(t *testing.T) {
	got := make(map[string][]popSummary)
	for _, base := range []sweepSpec{sweepPaper, sweepScreen} {
		for _, smoke := range []bool{false, true} {
			s := base.scaled(smoke)
			for j := 0; j < s.warmJobs; j++ {
				out := s.runJob(defaultSeed, j, s.workerCount())
				if out.failed != 0 {
					t.Fatalf("%s job %d: %v", s.name, j, out.problem)
				}
				got[s.refKey(smoke, j)] = out.sums
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reference aggregates changed; the program's sweep output differs from reference.json (rerun with -update only if the change is intended)")
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layer, perLayerDefs)
	}
}

// runSmoke runs one workload in smoke mode and returns its result line.
func runSmoke(t *testing.T, workload string, seed, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--smoke", "--spans", filepath.Join(t.TempDir(), "spans.json")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	return res
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that every named metric is emitted with its unit
// and every output check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			res := runSmoke(t, name, 7, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace == 1 && res.Metrics["live.recorder.dropped"].Value != 0 {
				t.Errorf("%s: recorder dropped %v events", name, res.Metrics["live.recorder.dropped"].Value)
			}
		}
	}
}

// TestSeedChangesSweepTrees checks that the seed reaches the trees and
// that another seed's trees pass every check too.
func TestSeedChangesSweepTrees(t *testing.T) {
	for _, base := range []sweepSpec{sweepPaper, sweepScreen} {
		s := base.scaled(true)
		a, b := s.runJob(1, 0, 1), s.runJob(2, 0, 1)
		if a.failed != 0 || b.failed != 0 {
			t.Fatalf("%s: failed checks: %v %v", s.name, a.problem, b.problem)
		}
		if reflect.DeepEqual(a.sums, b.sums) || reflect.DeepEqual(s.treeShape(1, 0), s.treeShape(2, 0)) {
			t.Errorf("%s: seeds 1 and 2 gave the same trees", s.name)
		}
	}
}

// TestCorruptedOutputCountsAsFailed makes the children corrupt every
// output they compute and checks that exactly those tasks count as failed.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	s := overlaySmall.scaled(true)
	payloads, want := s.inputs(1)
	var mu sync.Mutex
	corrupted := 0
	ov, err := startOverlay(func(node int) live.ComputeFunc {
		if node == 0 {
			return s.computeFunc(0, nil) // the slow root leaves most tasks to the children
		}
		return func(task live.Task) ([]byte, error) {
			out := transform(task.Payload)
			out[0] ^= 0xff
			mu.Lock()
			corrupted++
			mu.Unlock()
			return out, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.close()
	rep := &report{correct: true}
	_, _, _, failed := s.runWave(ov, payloads, want, rep)
	mu.Lock()
	defer mu.Unlock()
	if corrupted == 0 {
		t.Fatal("the children computed no task in this wave")
	}
	if failed != int64(corrupted) || rep.failed != failed || rep.attempted != int64(s.tasks) || rep.correct {
		t.Errorf("corrupted %d: wave failed %d, report attempted %d failed %d correct %v",
			corrupted, failed, rep.attempted, rep.failed, rep.correct)
	}
}

// TestTimedOutWaveCountsAsFailed stalls every compute past the wave
// timeout and checks that the whole wave counts as failed.
func TestTimedOutWaveCountsAsFailed(t *testing.T) {
	s := overlaySmall.scaled(true)
	s.waveTimeout = 200 * time.Millisecond
	payloads, want := s.inputs(1)
	release := make(chan struct{})
	ov, err := startOverlay(func(int) live.ComputeFunc {
		return func(task live.Task) ([]byte, error) {
			<-release
			return transform(task.Payload), nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.close()
	defer close(release) // runs before ov.close: no compute may block Close
	rep := &report{correct: true}
	_, tasks, _, failed := s.runWave(ov, payloads, want, rep)
	if failed != int64(len(tasks)) || rep.failed != failed || rep.attempted != int64(len(tasks)) || rep.correct {
		t.Errorf("timed-out wave: failed %d of %d, report attempted %d failed %d correct %v",
			failed, len(tasks), rep.attempted, rep.failed, rep.correct)
	}
}

// TestCheckWave covers the result checks without an overlay.
func TestCheckWave(t *testing.T) {
	tasks := []live.Task{{ID: 10}, {ID: 11}, {ID: 12}}
	want := [][]byte{{1}, {2}, {3}}
	for _, tc := range []struct {
		name    string
		results []live.Result
		failed  int64
	}{
		{"all good", []live.Result{{ID: 10, Output: []byte{1}}, {ID: 11, Output: []byte{2}}, {ID: 12, Output: []byte{3}}}, 0},
		{"missing", []live.Result{{ID: 10, Output: []byte{1}}, {ID: 12, Output: []byte{3}}}, 1},
		{"wrong output", []live.Result{{ID: 10, Output: []byte{1}}, {ID: 11, Output: []byte{9}}, {ID: 12, Output: []byte{3}}}, 1},
		{"repeated", []live.Result{{ID: 10, Output: []byte{1}}, {ID: 10, Output: []byte{1}}, {ID: 11, Output: []byte{2}}, {ID: 12, Output: []byte{3}}}, 1},
		{"foreign id", []live.Result{{ID: 9, Output: []byte{1}}, {ID: 11, Output: []byte{2}}, {ID: 12, Output: []byte{3}}}, 1},
	} {
		if got := checkWave(tasks, tc.results, want); got != tc.failed {
			t.Errorf("%s: failed %d, want %d", tc.name, got, tc.failed)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of
// its children, overlapping or not.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"job": 100 - 40 - 10, "a": 30 + 20, "b": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTail(t *testing.T) {
	jobs := make([]time.Duration, 100)
	for i := range jobs {
		jobs[i] = time.Duration(100-i) * time.Millisecond
	}
	pct, v, beyond := tail(jobs)
	if pct != 90 || v != 90*time.Millisecond || beyond != 10 {
		t.Errorf("tail of 1..100ms: p%v = %v with %d beyond, want p90 = 90ms with 10", pct, v, beyond)
	}
}
