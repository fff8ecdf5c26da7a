package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
)

// TestParallelForWrapsFailingIndex: the error carries the index that
// failed, in both the serial and the parallel execution paths.
func TestParallelForWrapsFailingIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := parallelFor(50, workers, func(_, i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "index 13") {
			t.Fatalf("workers=%d: err = %v, want the failing index", workers, err)
		}
	}
}

// failAt is the error a failing call returns; it names its own index so
// the reported error can be checked against the call it wraps.
type failAt int

func (f failAt) Error() string { return fmt.Sprintf("fail-%d", int(f)) }

// TestParallelForFirstErrorWins: when several indices fail, the reported
// error is one recorded failure, intact — the index in its message and
// the error it wraps name the same failing call. Which of several
// concurrent failures records first is the scheduler's choice, so the
// winner is read from the error itself; with one worker the first
// failing index, 7, is the only possible winner.
func TestParallelForFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := parallelFor(40, workers, func(_, i int) error {
			if i%10 == 7 { // indices 7, 17, 27, 37 fail
				return failAt(i)
			}
			return nil
		})
		var f failAt
		if !errors.As(err, &f) {
			t.Fatalf("workers=%d: err = %v, want a wrapped failAt", workers, err)
		}
		if f%10 != 7 {
			t.Fatalf("workers=%d: reported index %d never failed", workers, f)
		}
		if want := fmt.Sprintf("experiments: index %d: fail-%d", f, f); err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
		if workers == 1 && f != 7 {
			t.Fatalf("serial: reported index %d, want the first failure 7", f)
		}
	}
}

// TestParallelForDrainsWorkers: after an error, parallelFor still waits
// for every in-flight call to return before it does — no fn invocation
// may still be running when the caller regains control — and no new
// indices are grabbed once the error is recorded.
func TestParallelForDrainsWorkers(t *testing.T) {
	const n = 1000
	var started, finished atomic.Int64
	gate := make(chan struct{})
	err := parallelFor(n, 8, func(_, i int) error {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 {
			// Fail fast while other workers are blocked mid-call, forcing
			// the drain path to actually wait.
			close(gate)
			return errors.New("early failure")
		}
		<-gate
		return nil
	})
	if err == nil {
		t.Fatalf("no error returned")
	}
	s, f := started.Load(), finished.Load()
	if s != f {
		t.Fatalf("parallelFor returned with %d calls still running (%d started, %d finished)", s-f, s, f)
	}
	// The scheduler must have stopped early: with 8 workers and an
	// error on the first index, nearly all of the 1000 indices must
	// never have started.
	if s >= n {
		t.Fatalf("all %d indices ran despite an early error", n)
	}
}

// TestProgressCallbackMonotone: Progress fires once per tree, after
// every protocol has run on that tree — done goes 1..Trees exactly once
// per call, strictly increasing, and each report trails the outcomes it
// counts.
func TestProgressCallbackMonotone(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	protos := []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)}
	var outcomes atomic.Int64
	o.Observer = func(TreeOutcome) { outcomes.Add(1) }
	var mu sync.Mutex
	var calls int
	last := 0
	o.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != o.Trees {
			t.Errorf("total = %d, want %d", total, o.Trees)
		}
		if done != last+1 {
			t.Errorf("done jumped %d -> %d", last, done)
		}
		if seen := outcomes.Load(); seen < int64(done*len(protos)) {
			t.Errorf("done = %d reported after only %d outcomes, want >= %d", done, seen, done*len(protos))
		}
		last = done
		calls++
	}
	pops, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatalf("RunPopulation: %v", err)
	}
	if calls != o.Trees {
		t.Fatalf("progress calls = %d, want %d", calls, o.Trees)
	}
	if last != o.Trees {
		t.Fatalf("final done = %d, want %d", last, o.Trees)
	}
	// The sweep aggregate must reflect real engine work and deterministic
	// counts: every task in every tree computed exactly once.
	for _, p := range pops {
		wantComputes := int64(o.Trees) * o.Tasks
		if p.Sweep.Engine.ComputesDone != wantComputes {
			t.Fatalf("%v: aggregate ComputesDone = %d, want %d", p.Protocol, p.Sweep.Engine.ComputesDone, wantComputes)
		}
		if p.Sweep.Engine.Events == 0 || p.Sweep.TreesPerSec <= 0 || p.Sweep.Elapsed <= 0 {
			t.Fatalf("%v: sweep metrics not populated: %+v", p.Protocol, p.Sweep)
		}
	}
}

// TestSweepAggregateDeterministic: the engine-side sweep aggregate is a
// pure function of the options, regardless of worker count — except the
// FreeListHits/EventAllocs split, which depends on how warm each
// worker's reused run state is (one worker recycles across all trees;
// six workers start cold six times). Their sum, the total Schedule
// count, must still be deterministic.
func TestSweepAggregateDeterministic(t *testing.T) {
	o := tinyOptions()
	protos := []protocol.Protocol{protocol.Interruptible(3)}
	o.Workers = 1
	serial, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 6
	parallel, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial[0].Sweep.Engine, parallel[0].Sweep.Engine
	if sa, sb := a.FreeListHits+a.EventAllocs, b.FreeListHits+b.EventAllocs; sa != sb {
		t.Fatalf("total Schedule count differs by worker count: %d vs %d", sa, sb)
	}
	a.FreeListHits, a.EventAllocs = 0, 0
	b.FreeListHits, b.EventAllocs = 0, 0
	if a != b {
		t.Fatalf("aggregate metrics differ by worker count:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestRunPopulationMatchesEvaluateTree: the tree-major sweep, which
// builds each tree and its Theorem-1 weight once and runs every protocol
// on it, returns exactly what standalone per-(tree, protocol)
// evaluations return — every outcome, the streaming aggregate and the
// engine aggregate — at any worker count, materialized or streaming.
func TestRunPopulationMatchesEvaluateTree(t *testing.T) {
	o := tinyOptions()
	protos := []protocol.Protocol{
		protocol.Interruptible(3),
		protocol.NonInterruptible(1), // buffer growth
		protocol.NonInterruptibleFixed(3).WithOrder(protocol.Random),
	}
	want := make([][]TreeOutcome, len(protos))
	wantAgg := make([]*PopulationAgg, len(protos))
	wantEngine := make([]engine.Metrics, len(protos))
	for pi, p := range protos {
		wantAgg[pi] = NewPopulationAgg()
		for i := 0; i < o.Trees; i++ {
			oc, res, err := EvaluateTree(o, p, i, nil)
			if err != nil {
				t.Fatalf("EvaluateTree(%v, %d): %v", p, i, err)
			}
			want[pi] = append(want[pi], oc)
			wantAgg[pi].Observe(oc)
			wantEngine[pi].Add(res.Metrics)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, stream := range []bool{false, true} {
			o.Workers, o.Stream = workers, stream
			pops, err := RunPopulation(o, protos)
			if err != nil {
				t.Fatalf("workers=%d stream=%v: %v", workers, stream, err)
			}
			for pi, p := range pops {
				if p.Protocol != protos[pi] {
					t.Fatalf("workers=%d stream=%v: population %d is %v, want %v", workers, stream, pi, p.Protocol, protos[pi])
				}
				if stream != (p.Outcomes == nil) || (!stream && len(p.Outcomes) != o.Trees) {
					t.Fatalf("workers=%d stream=%v: %v materialized %d outcomes", workers, stream, p.Protocol, len(p.Outcomes))
				}
				for i, oc := range p.Outcomes {
					if oc != want[pi][i] {
						t.Fatalf("workers=%d: %v tree %d: sweep %+v, standalone %+v", workers, p.Protocol, i, oc, want[pi][i])
					}
				}
				if !reflect.DeepEqual(p.Agg, wantAgg[pi]) {
					t.Fatalf("workers=%d stream=%v: %v aggregate differs from the standalone runs'", workers, stream, p.Protocol)
				}
				got, exp := p.Sweep.Engine, wantEngine[pi]
				got.FreeListHits, got.EventAllocs = 0, 0
				exp.FreeListHits, exp.EventAllocs = 0, 0
				if got != exp {
					t.Fatalf("workers=%d stream=%v: %v engine aggregate\nsweep:      %+v\nstandalone: %+v", workers, stream, p.Protocol, got, exp)
				}
			}
		}
	}
}
