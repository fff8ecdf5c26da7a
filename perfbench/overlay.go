package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/live"
)

// overlaySpec is one live-overlay workload: a closed loop with one
// caller that submits a wave of tasks to the root, waits for every
// result, checks them, and submits the next wave. A job is one wave; an
// op is one task.
type overlaySpec struct {
	name        string
	tasks       int           // tasks per wave
	size        int           // payload bytes per task
	rootSleep   time.Duration // root compute stall, sized so the root computes ≤5% of tasks
	warmWaves   int           // waves per set-up repetition
	setupReps   int
	tracedWaves int // traced waves (and as many untraced) in the traced run
	waveTimeout time.Duration
}

// overlaySmall is dominated by per-task control traffic: requests,
// chunk acks, results, result acks and the relay through n1.
var overlaySmall = overlaySpec{
	name:        "overlay-small",
	tasks:       2048,
	size:        256,
	rootSleep:   2 * time.Millisecond,
	warmWaves:   3,
	setupReps:   3,
	tracedWaves: 4,
	waveTimeout: 30 * time.Second,
}

// overlayBulk is dominated by per-byte work: 64 KiB payloads travel as
// 16 chunks of 4 KiB each way, through the codec, chunk batching, socket
// writes and preemption between chunks.
var overlayBulk = overlaySpec{
	name:        "overlay-bulk",
	tasks:       512,
	size:        64 << 10,
	rootSleep:   5 * time.Millisecond,
	warmWaves:   3,
	setupReps:   3,
	tracedWaves: 10,
	waveTimeout: 30 * time.Second,
}

func (s overlaySpec) scaled(smoke bool) overlaySpec {
	if !smoke {
		return s
	}
	s.tasks = 32
	s.warmWaves = 1
	s.setupReps = 2
	s.tracedWaves = 2
	return s
}

// topology is the overlay tree: root → {n1, n2}, n1 → n3. Parents come
// before their children.
var topology = []struct{ name, parent string }{
	{"root", ""}, {"n1", "root"}, {"n2", "root"}, {"n3", "n1"},
}

const chunkSize = 4096 // the live default; set explicitly so the record states it

func (s overlaySpec) info() map[string]any {
	return map[string]any{
		"tree":           "root->{n1,n2}, n1->n3",
		"tasks_per_wave": s.tasks,
		"payload_bytes":  s.size,
		"chunk_bytes":    chunkSize,
		"buffers":        3,
		"protocol":       "IC",
		"codec":          "binary",
		"root_sleep_ms":  ms(s.rootSleep),
		"clients":        1,
		"loop":           "closed",
	}
}

// transform is the children's compute: a deterministic rolling-checksum
// transform of the payload, one pass over its bytes, output as long as
// the input so results carry the payload's volume back.
func transform(p []byte) []byte {
	out := make([]byte, len(p))
	s := uint64(0xcbf29ce484222325)
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		s = (s ^ w) * 0x100000001b3
		binary.LittleEndian.PutUint64(out[i:], w^s)
	}
	for ; i < len(p); i++ {
		s = (s ^ uint64(p[i])) * 0x100000001b3
		out[i] = p[i] ^ byte(s)
	}
	return out
}

// inputs makes the wave's payloads from the seed and their expected
// outputs. Every wave resubmits the same payloads under fresh task IDs.
func (s overlaySpec) inputs(seed uint64) (payloads, want [][]byte) {
	rng := rand.New(rand.NewPCG(seed, 0x6f7665726c6179))
	payloads = make([][]byte, s.tasks)
	want = make([][]byte, s.tasks)
	for i := range payloads {
		p := make([]byte, s.size)
		for j := 0; j < len(p); j += 8 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], rng.Uint64())
			copy(p[j:], b[:])
		}
		payloads[i] = p
		want[i] = transform(p)
	}
	return payloads, want
}

// computeTrace records compute spans while a traced wave runs. Each node
// computes one task at a time, so a node's log has a single writer; the
// mutex orders it against the reader.
type computeTrace struct {
	tr   *tracer
	wave atomic.Uint64 // span ID of the traced wave in progress; 0 = off
	mu   []sync.Mutex
	logs []*spanLog
}

func (s overlaySpec) computeFunc(node int, ct *computeTrace) live.ComputeFunc {
	sleep := time.Duration(0)
	if node == 0 {
		sleep = s.rootSleep
	}
	return func(t live.Task) ([]byte, error) {
		var start int64
		if ct != nil {
			start = ct.tr.now()
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		out := transform(t.Payload)
		if ct != nil {
			if wave := ct.wave.Load(); wave != 0 {
				end := ct.tr.now()
				ct.mu[node].Lock()
				ct.logs[node].add(ct.tr.id(), wave, taskOp(t.ID), "live.compute", start, end)
				ct.mu[node].Unlock()
			}
		}
		return out, nil
	}
}

// overlay is one running instance of the topology in this process.
type overlay struct {
	nodes     []*live.Node // in topology order
	submitted int64        // tasks handed to the root since it started
	nextID    uint64
}

// startOverlay starts every node; live.Start returns once a child's
// handshake with its parent is done, so the overlay is ready on return.
func startOverlay(compute func(node int) live.ComputeFunc, extra ...live.Option) (*overlay, error) {
	ov := &overlay{}
	addrs := make(map[string]string)
	for i, t := range topology {
		opts := []live.Option{live.WithCompute(compute(i)), live.WithChunkSize(chunkSize)}
		if t.parent != "" {
			opts = append(opts, live.WithParent(addrs[t.parent]))
		}
		if t.name == "root" || t.name == "n1" {
			opts = append(opts, live.WithListen("127.0.0.1:0"))
		}
		n, err := live.Start(t.name, append(opts, extra...)...)
		if err != nil {
			ov.close()
			return nil, fmt.Errorf("start %s: %w", t.name, err)
		}
		addrs[t.name] = n.Addr()
		ov.nodes = append(ov.nodes, n)
	}
	return ov, nil
}

// close stops the nodes, leaves first.
func (ov *overlay) close() {
	for i := len(ov.nodes) - 1; i >= 0; i-- {
		_ = ov.nodes[i].Close() // Close always returns nil
	}
}

// tasks builds the next wave under fresh, consecutive IDs.
func (ov *overlay) tasks(payloads [][]byte) []live.Task {
	tasks := make([]live.Task, len(payloads))
	for i, p := range payloads {
		ov.nextID++
		tasks[i] = live.Task{ID: ov.nextID, Payload: p}
	}
	return tasks
}

// wave runs one wave and returns its duration, the results, and how
// many of its tasks failed. A wave that errors or times out fails all of
// its tasks.
func (ov *overlay) wave(tasks []live.Task, want [][]byte, timeout time.Duration) (time.Duration, []live.Result, int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	t0 := time.Now()
	results, err := ov.nodes[0].Run(ctx, tasks)
	d := time.Since(t0)
	ov.submitted += int64(len(tasks))
	if err != nil {
		return d, results, int64(len(tasks)), err
	}
	return d, results, checkWave(tasks, results, want), nil
}

// checkWave counts the tasks that did not come back exactly once with
// the expected output. tasks carry consecutive IDs; want[i] is task i's
// expected output.
func checkWave(tasks []live.Task, results []live.Result, want [][]byte) int64 {
	const (
		missing = iota
		good
		bad
	)
	state := make([]uint8, len(tasks))
	for _, r := range results {
		i := r.ID - tasks[0].ID
		if r.ID < tasks[0].ID || i >= uint64(len(tasks)) {
			continue // not from this wave: no task of it succeeds by it
		}
		switch {
		case state[i] != missing:
			state[i] = bad // returned more than once
		case bytes.Equal(r.Output, want[i]):
			state[i] = good
		default:
			state[i] = bad
		}
	}
	var failed int64
	for _, st := range state {
		if st != good {
			failed++
		}
	}
	return failed
}

// totals sums node counters over the overlay.
func (ov *overlay) totals() []live.Stats {
	out := make([]live.Stats, len(ov.nodes))
	for i, n := range ov.nodes {
		out[i] = n.Stats()
	}
	return out
}

// checkComputed verifies that the nodes computed exactly the tasks the
// root was given: a mismatch is a lost or duplicated computation.
func (ov *overlay) checkComputed(rep *report) {
	var computed int64
	for _, st := range ov.totals() {
		computed += st.Computed
	}
	if computed != ov.submitted {
		diff := computed - ov.submitted
		if diff < 0 {
			diff = -diff
		}
		rep.account(0, diff, []string{fmt.Sprintf("nodes computed %d tasks, root was given %d", computed, ov.submitted)})
	}
}

// runWave runs one wave and accounts for its tasks.
func (s overlaySpec) runWave(ov *overlay, payloads, want [][]byte, rep *report) (time.Duration, []live.Task, []live.Result, int64) {
	tasks := ov.tasks(payloads)
	d, results, failed, err := ov.wave(tasks, want, s.waveTimeout)
	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	} else if failed > 0 {
		problems = append(problems, fmt.Sprintf("wave of %d tasks: %d missing, repeated or wrong outputs", len(tasks), failed))
	}
	rep.account(int64(len(tasks)), failed, problems)
	return d, tasks, results, failed
}

// setup starts the overlay and runs the warm-up waves; nothing is timed
// before it has finished.
func (s overlaySpec) setup(payloads, want [][]byte, rep *report, ct *computeTrace, extra ...live.Option) (*overlay, time.Duration, error) {
	t0 := time.Now()
	ov, err := startOverlay(func(i int) live.ComputeFunc { return s.computeFunc(i, ct) }, extra...)
	if err != nil {
		return nil, 0, err
	}
	for w := 0; w < s.warmWaves; w++ {
		s.runWave(ov, payloads, want, rep)
	}
	return ov, time.Since(t0), nil
}

func overlayWorkload(spec overlaySpec) workload {
	return workload{
		name:    spec.name,
		untimed: func(cfg runConfig) (*report, error) { return spec.scaled(cfg.smoke).untimed(cfg) },
		traced:  func(cfg runConfig) (*report, error) { return spec.scaled(cfg.smoke).traced(cfg) },
	}
}

func (s overlaySpec) untimed(cfg runConfig) (*report, error) {
	payloads, want := s.inputs(cfg.seed)
	rep := newReport(cfg, s.info())
	var m measured
	var ov *overlay
	for r := 0; r < s.setupReps; r++ {
		if ov != nil {
			ov.checkComputed(rep)
			ov.close()
		}
		var d time.Duration
		var err error
		if ov, d, err = s.setup(payloads, want, rep, nil); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d)
	}
	defer ov.close()

	m.from = sample()
	for time.Since(m.from.at) < cfg.measure {
		d, tasks, _, failed := s.runWave(ov, payloads, want, rep)
		m.job(d)
		m.ops += int64(len(tasks)) - failed
	}
	m.to = sample()
	ov.checkComputed(rep)

	rep.values = m.endToEnd(rep.info)
	return rep, nil
}
