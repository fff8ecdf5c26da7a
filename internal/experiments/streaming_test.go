package experiments

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bwcs/internal/protocol"
)

// TestStreamingMatchesMaterialized: every aggregate the streaming mode
// offers is bit-identical to the materialized path on the same seed —
// same reached fractions, same CDF points, same medians, same maxima.
func TestStreamingMatchesMaterialized(t *testing.T) {
	o := tinyOptions()
	protos := Fig4Protocols()
	mat, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatalf("materialized: %v", err)
	}
	o.Stream = true
	str, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatalf("streaming: %v", err)
	}
	xs := gridInt64(int(o.Tasks)/2, 60)
	for i := range protos {
		m, s := &mat[i], &str[i]
		if m.Outcomes == nil {
			t.Fatalf("%v: materialized run lacks outcomes", protos[i])
		}
		if s.Outcomes != nil {
			t.Fatalf("%v: streaming run materialized %d outcomes", protos[i], len(s.Outcomes))
		}
		if s.Agg == nil || s.Agg.Trees != o.Trees {
			t.Fatalf("%v: streaming aggregate missing or short: %+v", protos[i], s.Agg)
		}
		if got, want := s.ReachedFraction(), m.ReachedFraction(); got != want {
			t.Fatalf("%v: streaming reached fraction %v != materialized %v", protos[i], got, want)
		}
		if got, want := s.MedianOnset(), m.MedianOnset(); got != want {
			t.Fatalf("%v: streaming median onset %d != materialized %d", protos[i], got, want)
		}
		if got, want := s.OnsetCDF(xs), m.OnsetCDF(xs); !slices.Equal(got, want) {
			t.Fatalf("%v: streaming onset CDF differs\nstream: %v\nmater:  %v", protos[i], got, want)
		}
		for _, n := range Table1Buckets {
			if got, want := s.ReachedWithAtMostBuffers(n), m.ReachedWithAtMostBuffers(n); got != want {
				t.Fatalf("%v: streaming reached@<=%d = %v != materialized %v", protos[i], n, got, want)
			}
		}
		var wantMaxBuf, wantMaxUsed, wantTotBuf int64
		for j := range m.Outcomes {
			wantMaxBuf = max(wantMaxBuf, m.Outcomes[j].MaxNodeBuffers)
			wantMaxUsed = max(wantMaxUsed, m.Outcomes[j].MaxNodeUsed)
			wantTotBuf = max(wantTotBuf, m.Outcomes[j].TotalBuffers)
		}
		if s.Agg.MaxNodeBuffersMax != wantMaxBuf || s.Agg.MaxNodeUsedMax != wantMaxUsed || s.Agg.TotalBuffersMax != wantTotBuf {
			t.Fatalf("%v: streaming maxima (%d, %d, %d) != materialized (%d, %d, %d)", protos[i],
				s.Agg.MaxNodeBuffersMax, s.Agg.MaxNodeUsedMax, s.Agg.TotalBuffersMax,
				wantMaxBuf, wantMaxUsed, wantTotBuf)
		}
		// The materialized run builds the same aggregate alongside.
		if m.Agg == nil || m.Agg.Trees != o.Trees ||
			m.Agg.ReachedFraction() != s.Agg.ReachedFraction() ||
			m.Agg.MedianOnset() != s.Agg.MedianOnset() {
			t.Fatalf("%v: materialized run's aggregate disagrees with streaming run's", protos[i])
		}
	}
}

// TestStreamingObserver: the observer sees every tree exactly once, with
// regenerable indices.
func TestStreamingObserver(t *testing.T) {
	o := tinyOptions()
	o.Stream = true
	var mu sync.Mutex
	seen := map[int]int{}
	o.Observer = func(oc TreeOutcome) {
		mu.Lock()
		seen[oc.Index]++
		mu.Unlock()
	}
	if _, err := RunPopulation(o, []protocol.Protocol{protocol.Interruptible(3)}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != o.Trees {
		t.Fatalf("observer saw %d distinct trees, want %d", len(seen), o.Trees)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("observer saw tree %d %d times", idx, n)
		}
		if idx < 0 || idx >= o.Trees {
			t.Fatalf("observer saw out-of-range tree index %d", idx)
		}
	}
}

// TestProgressSlowCallbackDoesNotBlockWorkers: the progress callback runs
// outside the aggregation lock, so a callback that stalls cannot
// serialize the sweep — every other worker keeps simulating while the
// report is stuck, and the stalled reporter later drains the backlog in
// order, once per tree. Under the old behaviour (callback invoked under
// the lock) this test deadlocks.
func TestProgressSlowCallbackDoesNotBlockWorkers(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	protos := []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)}
	allDone := make(chan struct{})
	var outcomes atomic.Int64
	o.Observer = func(TreeOutcome) {
		if outcomes.Add(1) == int64(o.Trees*len(protos)) {
			close(allDone)
		}
	}
	var seen []int // appends are serialized by the progress contract
	o.Progress = func(done, total int) {
		seen = append(seen, done)
		if done == 1 {
			// Stall the first report until every protocol has simulated
			// every tree.
			<-allDone
		}
	}
	if _, err := RunPopulation(o, protos); err != nil {
		t.Fatal(err)
	}
	if len(seen) != o.Trees {
		t.Fatalf("progress fired %d times, want %d", len(seen), o.Trees)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v not 1..%d", seen, o.Trees)
		}
	}
}

// TestGridInt64 pins the checkpoint-grid fix: integer division used to
// emit zeros and duplicate points whenever points > max.
func TestGridInt64(t *testing.T) {
	cases := []struct {
		max, points int
		want        []int64
	}{
		{10, 5, []int64{2, 4, 6, 8, 10}},
		{60, 2, []int64{30, 60}},
		{3, 6, []int64{1, 2, 3}}, // points > max: dupes collapse
		{5, 10, []int64{1, 2, 3, 4, 5}},
		{1, 4, []int64{1}},
		{2, 7, []int64{1, 2}},
		{0, 3, nil},
		{7, 1, []int64{3, 7}}, // points clamps up to 2
	}
	for _, tc := range cases {
		got := gridInt64(tc.max, tc.points)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("gridInt64(%d, %d) = %v, want %v", tc.max, tc.points, got, tc.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("gridInt64(%d, %d) = %v not strictly increasing", tc.max, tc.points, got)
			}
		}
		if len(got) > 0 && got[len(got)-1] != int64(tc.max) {
			t.Fatalf("gridInt64(%d, %d) = %v does not end at max", tc.max, tc.points, got)
		}
	}
}
