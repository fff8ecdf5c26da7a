package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/internal/engine"
	"bwcs/internal/experiments"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/window"
)

// sweepSpec is one simulator workload. A job is one RunPopulation call
// per computation class; an op is one simulation (tree × protocol).
type sweepSpec struct {
	name      string
	tasks     int64
	threshold int
	comps     []int64 // randtree computation parameter x, one class each
	trees     int     // trees per RunPopulation call
	workers   int     // sweep workers; 0 means GOMAXPROCS
	protos    []protocol.Protocol
	warmJobs  int // reference jobs replayed per set-up repetition
	setupReps int
	scaleJobs int // jobs in each pass of the scaling measurement
}

// sweepPaper is the Figure 4 / Table 1 method: the engine does nearly
// all the work, and it is the only workload with parallel orchestration.
var sweepPaper = sweepSpec{
	name:      "sweep-paper",
	tasks:     10_000,
	threshold: 300,
	comps:     []int64{10_000},
	trees:     12,
	workers:   0,
	protos:    []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)},
	warmJobs:  2,
	setupReps: 3,
	scaleJobs: 4,
}

// sweepScreen is Figure 5 / Table 2-style screening: many short runs on
// one worker, so per-tree fixed costs (tree generation, the Theorem-1
// optimum) carry a large share. Every job covers all four x-classes, which
// keeps job durations unimodal.
var sweepScreen = sweepSpec{
	name:      "sweep-screen",
	tasks:     1_000,
	threshold: 100,
	comps:     []int64{500, 1000, 5000, 10_000},
	trees:     8,
	workers:   1,
	protos: []protocol.Protocol{
		protocol.Interruptible(1), protocol.Interruptible(3),
		protocol.NonInterruptible(1), protocol.NonInterruptibleFixed(3),
	},
	warmJobs:  2,
	setupReps: 3,
	scaleJobs: 4,
}

// scaled shrinks the workload for smoke runs.
func (s sweepSpec) scaled(smoke bool) sweepSpec {
	if !smoke {
		return s
	}
	s.tasks = 200
	s.threshold = min(s.threshold, 20)
	s.trees = 2
	s.warmJobs = 1
	s.setupReps = 2
	s.scaleJobs = 1
	return s
}

func (s sweepSpec) workerCount() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s sweepSpec) opsPerJob() int64 { return int64(s.trees * len(s.protos) * len(s.comps)) }

// jobSeed derives job j's population seed from the workload seed.
func jobSeed(seed uint64, j int) uint64 { return seed<<20 | uint64(j) }

func (s sweepSpec) options(seed uint64, j int, comp int64, workers int) experiments.Options {
	o := experiments.Default()
	o.Trees = s.trees
	o.Tasks = s.tasks
	o.Threshold = s.threshold
	o.Seed = jobSeed(seed, j)
	o.Params = randtree.Defaults().WithComp(comp)
	o.Workers = workers
	o.Stream = true
	return o
}

func (s sweepSpec) refKey(smoke bool, j int) string {
	if smoke {
		return fmt.Sprintf("%s/smoke/job%d", s.name, j)
	}
	return fmt.Sprintf("%s/job%d", s.name, j)
}

func (s sweepSpec) info() map[string]any {
	var protos []string
	for _, p := range s.protos {
		protos = append(protos, p.String())
	}
	p := randtree.Defaults()
	return map[string]any{
		"workers":        s.workerCount(),
		"tasks":          s.tasks,
		"threshold":      s.threshold,
		"comp_classes":   s.comps,
		"trees_per_call": s.trees,
		"protocols":      protos,
		"ops_per_job":    s.opsPerJob(),
		"tree_nodes":     []int{p.MinNodes, p.MaxNodes},
		"tree_comm":      []int64{p.MinComm, p.MaxComm},
	}
}

// popSummary is the checked aggregate of one protocol's population.
type popSummary struct {
	Protocol       string    `json:"protocol"`
	Comp           int64     `json:"comp"`
	Trees          int       `json:"trees"`
	Reached        int       `json:"reached"`
	MedianOnset    int64     `json:"medianOnset"`
	CDF            []float64 `json:"cdf"`
	MaxNodeBuffers int64     `json:"maxNodeBuffers"`
	MaxNodeUsed    int64     `json:"maxNodeUsed"`
	TotalBuffers   int64     `json:"totalBuffers"`
	Events         uint64    `json:"events"`
	ComputesDone   int64     `json:"computesDone"`
}

// cdfGrid is the fixed grid the onset CDF is checked on.
func cdfGrid(tasks int64) []int64 {
	out := make([]int64, 10)
	for i := range out {
		out[i] = int64(i+1) * (tasks / 2) / 10
	}
	return out
}

func summarize(p protocol.Protocol, comp, tasks int64, agg *experiments.PopulationAgg, m engine.Metrics) popSummary {
	return popSummary{
		Protocol:       p.String(),
		Comp:           comp,
		Trees:          agg.Trees,
		Reached:        agg.Reached,
		MedianOnset:    agg.MedianOnset(),
		CDF:            agg.OnsetCDF(cdfGrid(tasks)),
		MaxNodeBuffers: agg.MaxNodeBuffersMax,
		MaxNodeUsed:    agg.MaxNodeUsedMax,
		TotalBuffers:   agg.TotalBuffersMax,
		Events:         m.Events,
		ComputesDone:   m.ComputesDone,
	}
}

// check applies the invariants every population must satisfy, whatever
// the seed: every task of every tree completed, and the onset CDF is a
// monotone fraction that ends at the reached fraction.
func (s sweepSpec) check(ps popSummary) error {
	if ps.Trees != s.trees {
		return fmt.Errorf("%s x=%d: %d trees observed, want %d", ps.Protocol, ps.Comp, ps.Trees, s.trees)
	}
	if want := int64(s.trees) * s.tasks; ps.ComputesDone != want {
		return fmt.Errorf("%s x=%d: %d completions, want %d", ps.Protocol, ps.Comp, ps.ComputesDone, want)
	}
	prev := 0.0
	for i, f := range ps.CDF {
		if f < prev || f > 1 {
			return fmt.Errorf("%s x=%d: onset CDF not monotone in [0,1] at point %d: %v", ps.Protocol, ps.Comp, i, ps.CDF)
		}
		prev = f
	}
	if last := ps.CDF[len(ps.CDF)-1]; last != float64(ps.Reached)/float64(ps.Trees) {
		return fmt.Errorf("%s x=%d: CDF ends at %v, reached fraction is %d/%d", ps.Protocol, ps.Comp, last, ps.Reached, ps.Trees)
	}
	return nil
}

// jobOutcome is one job's populations, summarized and checked.
type jobOutcome struct {
	sums    []popSummary
	ops     int64
	failed  int64
	problem []string
}

// runJob runs job j of seed through RunPopulation, one call per class,
// and checks every population. A failed call or a population that breaks
// an invariant counts all of its simulations as failed.
func (s sweepSpec) runJob(seed uint64, j, workers int) jobOutcome {
	var out jobOutcome
	for _, comp := range s.comps {
		o := s.options(seed, j, comp, workers)
		out.ops += int64(o.Trees * len(s.protos))
		pops, err := experiments.RunPopulation(o, s.protos)
		if err != nil {
			out.failed += int64(o.Trees * len(s.protos))
			out.problem = append(out.problem, err.Error())
			continue
		}
		for _, p := range pops {
			ps := summarize(p.Protocol, comp, s.tasks, p.Agg, p.Sweep.Engine)
			if err := s.check(ps); err != nil {
				out.failed += int64(o.Trees)
				out.problem = append(out.problem, err.Error())
			}
			out.sums = append(out.sums, ps)
		}
	}
	return out
}

//go:embed reference.json
var referenceJSON []byte

// loadReference returns the stored aggregates of each workload's
// reference jobs (the first jobs of the default seed).
func loadReference() (map[string][]popSummary, error) {
	ref := make(map[string][]popSummary)
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference aggregates: %w", err)
	}
	return ref, nil
}

// setup replays the reference jobs and checks them against the stored
// aggregates. It is the sweep's warm-up: nothing is timed before it.
func (s sweepSpec) setup(rep *report, smoke bool, ref map[string][]popSummary) time.Duration {
	start := time.Now()
	for j := 0; j < s.warmJobs; j++ {
		out := s.runJob(defaultSeed, j, s.workerCount())
		want, ok := ref[s.refKey(smoke, j)]
		if out.failed == 0 && (!ok || !reflect.DeepEqual(out.sums, want)) {
			out.failed = out.ops
			out.problem = append(out.problem, fmt.Sprintf("reference job %d: aggregates %+v differ from reference.json (stored: %v)", j, out.sums, ok))
		}
		rep.account(out.ops, out.failed, out.problem)
	}
	return time.Since(start)
}

func sweepWorkload(spec sweepSpec) workload {
	return workload{
		name:    spec.name,
		untimed: func(cfg runConfig) (*report, error) { return spec.scaled(cfg.smoke).untimed(cfg) },
		traced:  func(cfg runConfig) (*report, error) { return spec.scaled(cfg.smoke).traced(cfg) },
	}
}

func (s sweepSpec) untimed(cfg runConfig) (*report, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, s.info())
	var m measured
	for r := 0; r < s.setupReps; r++ {
		m.setups = append(m.setups, s.setup(rep, cfg.smoke, ref))
	}

	m.from = sample()
	for j := s.warmJobs; time.Since(m.from.at) < cfg.measure; j++ {
		t0 := time.Now()
		out := s.runJob(cfg.seed, j, s.workerCount())
		m.job(time.Since(t0))
		m.ops += out.ops - out.failed
		rep.account(out.ops, out.failed, out.problem)
	}
	m.to = sample()

	rep.values = m.endToEnd(rep.info)
	rep.info["first_job_trees"] = s.treeShape(cfg.seed, s.warmJobs)
	return rep, nil
}

// treeShape describes job j's trees: node count and depth ranges.
func (s sweepSpec) treeShape(seed uint64, j int) map[string]any {
	nodes, depth := []int{1 << 30, 0}, []int{1 << 30, 0}
	var sumNodes int
	for i := 0; i < s.trees; i++ {
		t := randtree.TreeAt(randtree.Defaults().WithComp(s.comps[0]), jobSeed(seed, j), i)
		nodes[0], nodes[1] = min(nodes[0], t.Len()), max(nodes[1], t.Len())
		depth[0], depth[1] = min(depth[0], t.MaxDepth()), max(depth[1], t.MaxDepth())
		sumNodes += t.Len()
	}
	return map[string]any{"nodes_min_max": nodes, "depth_min_max": depth, "nodes_mean": float64(sumNodes) / float64(s.trees)}
}

// Layer span names of the traced sweep.
const (
	spanJob      = "experiments.job"
	spanSim      = "experiments.sim"
	spanRandtree = "randtree.TreeAt"
	spanEngine   = "engine.Run"
	spanOptimal  = "optimal.Weight"
	spanWindow   = "window.Onset"
	spanObserve  = "experiments.Observe"
)

var sweepLayers = []string{spanRandtree, spanEngine, spanOptimal, spanWindow, spanObserve}

// tracedPop is one protocol's population as the traced recomposition
// computed it.
type tracedPop struct {
	outcomes []experiments.TreeOutcome
	agg      *experiments.PopulationAgg
	metrics  engine.Metrics
	peakSum  int64 // Σ per-run event-heap high-water marks
}

// tracedCall runs one RunPopulation call's work by calling the layers
// directly, in the order Evaluator.EvaluateTree calls them, on the same
// worker count, with a span around each call. Like RunPopulation, it
// gives each worker a fresh Runner per call.
func (s sweepSpec) tracedCall(o experiments.Options, tr *tracer, logs []*spanLog, jobID uint64) ([]tracedPop, error) {
	runners := make([]*engine.Runner, len(logs))
	for w := range runners {
		runners[w] = engine.NewRunner()
	}
	out := make([]tracedPop, len(s.protos))
	for pi, p := range s.protos {
		tp := tracedPop{outcomes: make([]experiments.TreeOutcome, o.Trees), agg: experiments.NewPopulationAgg()}
		var (
			mu       sync.Mutex // guards tp.agg, tp.metrics, tp.peakSum, firstErr
			firstErr error
			next     atomic.Int64
			wg       sync.WaitGroup
		)
		workers := min(len(runners), o.Trees)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				l, r := logs[w], runners[w]
				for {
					i := int(next.Add(1) - 1)
					if i >= o.Trees {
						return
					}
					simID := tr.id()
					t0 := tr.now()
					tree := randtree.TreeAt(o.Params, o.Seed, i)
					t1 := tr.now()
					res, err := r.Run(engine.Config{Tree: tree, Protocol: p, Tasks: o.Tasks, Seed: o.Seed + uint64(i)})
					t2 := tr.now()
					if err != nil {
						mu.Lock()
						firstErr = fmt.Errorf("tree %d under %v: %w", i, p, err)
						mu.Unlock()
						return
					}
					wt := optimal.Weight(tree)
					t3 := tr.now()
					series, err := window.New(res.Completions, wt)
					if err != nil {
						mu.Lock()
						firstErr = fmt.Errorf("tree %d under %v: %w", i, p, err)
						mu.Unlock()
						return
					}
					oc := experiments.TreeOutcome{
						Index:          i,
						Nodes:          tree.Len(),
						Depth:          tree.MaxDepth(),
						MaxNodeBuffers: res.MaxNodeBuffers(),
						MaxNodeUsed:    res.MaxNodeUsed(),
						TotalBuffers:   res.TotalBuffers(),
						UsedNodes:      res.UsedCount(),
						UsedDepth:      res.UsedMaxDepth(),
						Makespan:       res.Makespan,
					}
					oc.Onset, oc.Reached = series.Onset(o.Threshold)
					t4 := tr.now()
					tp.outcomes[i] = oc
					mu.Lock()
					t5 := tr.now()
					tp.agg.Observe(oc)
					t6 := tr.now()
					tp.metrics.Add(res.Metrics)
					tp.peakSum += int64(res.Metrics.PeakPending)
					mu.Unlock()
					l.add(tr.id(), simID, simID, spanRandtree, t0, t1)
					l.add(tr.id(), simID, simID, spanEngine, t1, t2)
					l.add(tr.id(), simID, simID, spanOptimal, t2, t3)
					l.add(tr.id(), simID, simID, spanWindow, t3, t4)
					l.add(tr.id(), simID, simID, spanObserve, t5, t6)
					l.add(simID, jobID, simID, spanSim, t0, t6)
				}
			}(w)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		out[pi] = tp
	}
	return out, nil
}

// verify checks the traced recomposition bit for bit against
// RunPopulation on the same inputs, which it times as the untraced
// reference. It returns the simulations that differ.
func (s sweepSpec) verify(o experiments.Options, traced []tracedPop) (time.Duration, int64, []string, error) {
	o.Stream = false
	t0 := time.Now()
	pops, err := experiments.RunPopulation(o, s.protos)
	d := time.Since(t0)
	if err != nil {
		return d, 0, nil, err
	}
	var bad int64
	var problems []string
	for pi, p := range pops {
		tp := traced[pi]
		for i, oc := range p.Outcomes {
			if oc != tp.outcomes[i] {
				bad++
				problems = append(problems, fmt.Sprintf("%v seed %d tree %d: traced outcome %+v, RunPopulation %+v", p.Protocol, o.Seed, i, tp.outcomes[i], oc))
			}
		}
		want := summarize(p.Protocol, o.Params.Comp, o.Tasks, p.Agg, p.Sweep.Engine)
		got := summarize(p.Protocol, o.Params.Comp, o.Tasks, tp.agg, tp.metrics)
		if !reflect.DeepEqual(got, want) {
			bad += int64(o.Trees)
			problems = append(problems, fmt.Sprintf("%v seed %d: traced aggregate %+v, RunPopulation %+v", p.Protocol, o.Seed, got, want))
		}
	}
	return d, bad, problems, nil
}

func (s sweepSpec) traced(cfg runConfig) (*report, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	rep := newReport(cfg, s.info())
	s.setup(rep, cfg.smoke, ref)

	// Outside the traced phase: the allocation attribution pass and the
	// two untraced scaling passes.
	allocs, allocSims := s.allocsPerSim(cfg.seed, s.warmJobs)
	eff := s.scaling(cfg.seed, rep)

	tr := newTracer()
	workers := s.workerCount()
	logs := make([]*spanLog, workers)
	for w := range logs {
		logs[w] = tr.log(w)
	}
	jobLog := tr.log(-1)
	var (
		sims              int64
		m                 engine.Metrics
		peakSum           int64
		tracedWall, plain time.Duration
		jobs              int
	)
	for j := s.warmJobs; tracedWall+plain < cfg.measure; j++ {
		jobID := tr.id()
		start := tr.now()
		var calls []experiments.Options
		var results [][]tracedPop
		for _, comp := range s.comps {
			o := s.options(cfg.seed, j, comp, workers)
			t0 := time.Now()
			tps, err := s.tracedCall(o, tr, logs, jobID)
			tracedWall += time.Since(t0)
			if err != nil {
				return nil, err
			}
			calls, results = append(calls, o), append(results, tps)
		}
		jobLog.add(jobID, 0, jobID, spanJob, start, tr.now())
		for k, o := range calls {
			d, bad, problems, err := s.verify(o, results[k])
			if err != nil {
				return nil, err
			}
			plain += d
			rep.account(int64(o.Trees*len(s.protos)), bad, problems)
			for _, tp := range results[k] {
				m.Add(tp.metrics)
				peakSum += tp.peakSum
			}
		}
		sims += s.opsPerJob()
		jobs++
	}

	spans := tr.all()
	layer := make(map[string]time.Duration)
	for _, sp := range spans {
		layer[sp.Name] += sp.dur()
	}
	var layerSum time.Duration
	for _, name := range sweepLayers {
		layerSum += layer[name]
	}
	perSim := func(d time.Duration) float64 { return us(d) / float64(sims) }
	share := func(name string) float64 { return ratio(float64(layer[name]), float64(layerSum)) }
	v := rep.values
	v["randtree.us_per_sim"] = perSim(layer[spanRandtree])
	v["randtree.share"] = share(spanRandtree)
	v["optimal.us_per_sim"] = perSim(layer[spanOptimal])
	v["optimal.share"] = share(spanOptimal)
	v["engine.us_per_sim"] = perSim(layer[spanEngine])
	v["engine.share"] = share(spanEngine)
	v["engine.ns_per_event"] = float64(layer[spanEngine]) / float64(m.Events)
	v["engine.events_per_sim"] = float64(m.Events) / float64(sims)
	v["engine.cancels_per_sim"] = float64(m.EventsCancels) / float64(sims)
	v["engine.peak_pending"] = float64(peakSum) / float64(sims)
	v["engine.sends_interrupted_per_sim"] = float64(m.SendsInterrupted) / float64(sims)
	v["engine.requests_per_sim"] = float64(m.Requests) / float64(sims)
	v["engine.free_list_hit_rate"] = m.FreeListHitRate()
	v["engine.allocs_per_sim"] = allocs
	v["window.us_per_sim"] = perSim(layer[spanWindow])
	v["window.share"] = share(spanWindow)
	v["experiments.agg_us_per_sim"] = perSim(layer[spanObserve])
	v["experiments.idle_frac"] = 1 - float64(layerSum)/(float64(workers)*float64(tracedWall))
	v["experiments.scaling_eff"] = eff
	v["trace.overhead_frac"] = plain.Seconds()/tracedWall.Seconds() - 1

	rep.info["traced_jobs"] = jobs
	rep.info["traced_sims"] = sims
	rep.info["alloc_pass_sims"] = allocSims
	if err := writeSpans(cfg.spanPath, s.name, cfg.seed, rep.info, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// allocsPerSim runs job j's simulations on one goroutine with a reused
// Runner and attributes the process-wide malloc count to engine.Run.
func (s sweepSpec) allocsPerSim(seed uint64, j int) (float64, int) {
	r := engine.NewRunner()
	var before, after runtime.MemStats
	var total uint64
	sims := 0
	for _, comp := range s.comps {
		o := s.options(seed, j, comp, 1)
		for _, p := range s.protos {
			for i := 0; i < o.Trees; i++ {
				tree := randtree.TreeAt(o.Params, o.Seed, i)
				runtime.ReadMemStats(&before)
				_, err := r.Run(engine.Config{Tree: tree, Protocol: p, Tasks: o.Tasks, Seed: o.Seed + uint64(i)})
				runtime.ReadMemStats(&after)
				if err != nil {
					continue // the traced phase reports the same failure
				}
				total += after.Mallocs - before.Mallocs
				sims++
			}
		}
	}
	return ratio(float64(total), float64(sims)), sims
}

// scaling runs the same jobs untraced at GOMAXPROCS workers and at one
// worker and returns rate(n) / (n · rate(1)).
func (s sweepSpec) scaling(seed uint64, rep *report) float64 {
	n := runtime.GOMAXPROCS(0)
	rate := func(workers int) float64 {
		t0 := time.Now()
		var ops int64
		for j := s.warmJobs; j < s.warmJobs+s.scaleJobs; j++ {
			out := s.runJob(seed, j, workers)
			rep.account(out.ops, out.failed, out.problem)
			ops += out.ops - out.failed
		}
		return float64(ops) / time.Since(t0).Seconds()
	}
	rn := rate(n)
	r1 := rate(1)
	rep.info["scaling_rates"] = map[string]float64{fmt.Sprintf("workers_%d", n): rn, "workers_1": r1}
	return ratio(rn, float64(n)*r1)
}
