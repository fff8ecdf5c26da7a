package main

import (
	"runtime"
	"sync"
	"time"

	"bwcs/live"
)

// recorderEventsPerTask bounds the flight-recorder events one node
// writes per task, so the traced run's ring never wraps. The busiest node
// records about five (dispatch, chunk ack, result receipt, collection or
// relay, and its share of requests); interrupt/resume pairs add a few.
const recorderEventsPerTask = 8

// taskOp maps a task ID to its span op ID, apart from the tracer's own
// span and wave IDs.
func taskOp(id uint64) uint64 { return 1<<48 + id }

// wireBenchFrames sizes the codec measurement to about 16 MiB per link.
func wireBenchFrames(frameSize int) int {
	return min(max((16<<20)/max(frameSize, 1), 2_000), 60_000)
}

// journey is one task's first recorder timestamps at one node, in
// wall-clock nanoseconds; 0 means the node did not see the event.
type journey struct {
	send, recv, cstart, cdone, rsend, rack, collect int64
}

func setFirst(p *int64, t int64) {
	if *p == 0 {
		*p = t
	}
}

// journeys indexes every node's recorder events by task, for the tasks
// keep accepts.
// It also returns the most events any one node recorded.
func journeys(ov *overlay, keep func(uint64) bool) ([]map[uint64]*journey, int) {
	idx := make([]map[uint64]*journey, len(ov.nodes))
	most := 0
	for ni, n := range ov.nodes {
		idx[ni] = make(map[uint64]*journey)
		d := n.TraceDump()
		most = max(most, len(d.Events))
		for _, e := range d.Events {
			if e.Task == 0 || !keep(e.Task) {
				continue
			}
			j := idx[ni][e.Task]
			if j == nil {
				j = &journey{}
				idx[ni][e.Task] = j
			}
			t := d.EpochUnixNano + e.At
			switch e.Kind {
			case live.EvChunkSend:
				setFirst(&j.send, t)
			case live.EvTaskReceived:
				setFirst(&j.recv, t)
			case live.EvComputeStart:
				setFirst(&j.cstart, t)
			case live.EvComputeDone:
				setFirst(&j.cdone, t)
			case live.EvResultSend:
				setFirst(&j.rsend, t)
			case live.EvResultAck:
				setFirst(&j.rack, t)
			case live.EvResultCollect:
				setFirst(&j.collect, t)
			}
		}
	}
	return idx, most
}

// stageNames are the per-task stages a journey splits into.
var stageNames = []string{"root_queue", "transfer", "child_queue", "compute", "result", "ack"}

// stages splits one task's journey into its stages as spans
// (name, start, end in wall-clock ns). It reports false when a needed
// event is missing.
func stages(idx []map[uint64]*journey, id uint64, origin int, waveStart int64) ([][3]int64, []string, bool) {
	var path []int // root first, origin last
	for n := origin; n >= 0; n = parentIndex(n) {
		path = append([]int{n}, path...)
	}
	at := func(n int) *journey { return idx[n][id] }
	for _, n := range path {
		if at(n) == nil {
			return nil, nil, false
		}
	}
	o := at(origin)
	var spans [][3]int64
	var names []string
	add := func(name string, a, b int64) bool {
		if a == 0 || b == 0 || b < a {
			return false
		}
		spans = append(spans, [3]int64{0, a, b})
		names = append(names, name)
		return true
	}
	firstRoot := at(0).send
	if origin == 0 {
		firstRoot = o.cstart
	}
	ok := add("root_queue", waveStart, firstRoot)
	for k := 0; k+1 < len(path); k++ {
		from, to := at(path[k]), at(path[k+1])
		ok = ok && add("transfer", from.send, to.recv)
		next := to.send
		if path[k+1] == origin {
			next = to.cstart
		}
		ok = ok && add("child_queue", to.recv, next)
	}
	ok = ok && add("compute", o.cstart, o.cdone)
	ok = ok && add("result", o.cdone, at(0).collect)
	if origin != 0 {
		ok = ok && add("ack", o.rsend, o.rack)
	}
	return spans, names, ok
}

// parentIndex is a node's parent in topology, -1 for the root.
func parentIndex(n int) int {
	for i, t := range topology {
		if t.name == topology[n].parent {
			return i
		}
	}
	return -1
}

func nodeIndex(name string) int {
	for i, t := range topology {
		if t.name == name {
			return i
		}
	}
	return -1
}

// tracedWave is a traced wave's record for journey reconstruction.
type tracedWave struct {
	id      uint64
	start   time.Time
	tasks   []live.Task
	results []live.Result
}

func (s overlaySpec) traced(cfg runConfig) (*report, error) {
	payloads, want := s.inputs(cfg.seed)
	rep := newReport(cfg, s.info())
	v := rep.values

	// The codec, measured alone at this workload's frame size and link
	// count, before the overlay starts.
	frameSize := min(s.size, chunkSize)
	frames := wireBenchFrames(frameSize)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wb, err := live.WireBench(live.CodecBinary, len(topology)-1, frames, frameSize, 8)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	v["live.codec.ns_per_frame"] = float64(wb.Elapsed) / float64(wb.Frames)
	v["live.codec.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(wb.Frames)
	rep.info["wirebench"] = map[string]any{"links": len(topology) - 1, "frames": wb.Frames, "frame_bytes": frameSize, "batch": 8}

	tr := newTracer()
	ct := &computeTrace{tr: tr, mu: make([]sync.Mutex, len(topology))}
	for i := range topology {
		ct.logs = append(ct.logs, tr.log(i))
	}
	capacity := (s.warmWaves + 2*s.tracedWaves) * s.tasks * recorderEventsPerTask
	ov, _, err := s.setup(payloads, want, rep, ct, live.WithRecorderCapacity(capacity))
	if err != nil {
		return nil, err
	}
	defer ov.close()

	// Traced and untraced waves alternate, so the overhead comparison
	// sees the same overlay state on both sides.
	waveLog := tr.log(-1)
	var waves []tracedWave
	var tracedWall, plainWall time.Duration
	var tracedTasks, plainTasks int64
	before := ov.totals()
	for w := 0; w < 2*s.tracedWaves; w++ {
		if w%2 == 1 {
			d, tasks, _, _ := s.runWave(ov, payloads, want, rep)
			plainWall += d
			plainTasks += int64(len(tasks))
			continue
		}
		id := tr.id()
		ct.wave.Store(id)
		start := time.Now()
		d, tasks, results, _ := s.runWave(ov, payloads, want, rep)
		ct.wave.Store(0)
		waveLog.add(id, 0, id, "live.wave", tr.at(start), tr.at(start.Add(d)))
		waves = append(waves, tracedWave{id: id, start: start, tasks: tasks, results: results})
		tracedWall += d
		tracedTasks += int64(len(tasks))
	}
	after := ov.totals()
	ov.checkComputed(rep)

	var d live.Stats
	var dropped int64
	for i := range after {
		a, b := after[i], before[i]
		d.Computed += a.Computed - b.Computed
		d.Forwarded += a.Forwarded - b.Forwarded
		d.Interrupts += a.Interrupts - b.Interrupts
		d.Requests += a.Requests - b.Requests
		d.ResultAcks += a.ResultAcks - b.ResultAcks
		d.ResultsReplayed += a.ResultsReplayed - b.ResultsReplayed
		d.ResultsDeduped += a.ResultsDeduped - b.ResultsDeduped
		d.FramesSent += a.FramesSent - b.FramesSent
		d.BytesSent += a.BytesSent - b.BytesSent
		dropped += a.RecorderDropped
	}
	tasks := float64(tracedTasks + plainTasks)
	v["live.wire.frames_per_task"] = float64(d.FramesSent) / tasks
	v["live.wire.bytes_per_task"] = float64(d.BytesSent) / tasks
	v["live.wire.overhead_ratio"] = ratio(float64(d.BytesSent), float64(d.Forwarded)*2*float64(s.size))
	v["live.sendport.interrupts_per_task"] = float64(d.Interrupts) / tasks
	v["live.sendport.forwarded_per_task"] = float64(d.Forwarded) / tasks
	v["live.sched.requests_per_task"] = float64(d.Requests) / tasks
	v["live.result.acks_per_task"] = float64(d.ResultAcks) / tasks
	v["live.result.replayed"] = float64(d.ResultsReplayed)
	v["live.result.deduped"] = float64(d.ResultsDeduped)
	v["live.compute.root_share"] = ratio(float64(after[0].Computed-before[0].Computed), float64(d.Computed))
	v["live.recorder.dropped"] = float64(dropped)
	v["trace.overhead_frac"] = (float64(tracedTasks)/tracedWall.Seconds())/(float64(plainTasks)/plainWall.Seconds()) - 1

	// Stage medians from the traced waves' journeys.
	first, last := waves[0].tasks[0].ID, waves[len(waves)-1].tasks[len(waves[len(waves)-1].tasks)-1].ID
	idx, recorded := journeys(ov, func(id uint64) bool { return id >= first && id <= last })
	stageLog := tr.log(-1)
	perStage := make(map[string][]float64)
	incomplete := 0
	for _, w := range waves {
		for _, r := range w.results {
			origin := nodeIndex(r.Origin)
			if origin < 0 {
				incomplete++
				continue
			}
			spans, names, ok := stages(idx, r.ID, origin, w.start.UnixNano())
			if !ok {
				incomplete++
				continue
			}
			sums := make(map[string]int64)
			for k, sp := range spans {
				sums[names[k]] += sp[2] - sp[1]
				stageLog.add(tr.id(), w.id, taskOp(r.ID), "live.stage."+names[k],
					tr.at(time.Unix(0, sp[1])), tr.at(time.Unix(0, sp[2])))
			}
			for name, ns := range sums {
				perStage[name] = append(perStage[name], float64(ns)/1e3)
			}
		}
	}
	for _, name := range stageNames {
		v["live.stage."+name+"_us"] = median(perStage[name])
	}

	var busy time.Duration
	for i := range ct.logs {
		ct.mu[i].Lock()
		for _, sp := range ct.logs[i].spans {
			busy += sp.dur()
		}
		ct.mu[i].Unlock()
	}
	v["live.compute.busy_frac"] = ratio(float64(busy), float64(len(topology))*float64(tracedWall))

	rep.info["traced_waves"] = len(waves)
	rep.info["untraced_waves"] = s.tracedWaves
	rep.info["journeys_incomplete"] = incomplete
	rep.info["recorder_capacity"] = capacity
	rep.info["recorder_events_max_node"] = recorded
	if err := writeSpans(cfg.spanPath, s.name, cfg.seed, rep.info, tr.all()); err != nil {
		return nil, err
	}
	return rep, nil
}
