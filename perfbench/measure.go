package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is a process-wide snapshot taken at a phase boundary.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system CPU time of the process
	mallocs uint64
}

func sample() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// CPU reading would only make cpu_us_per_op read 0.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs}
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMiB is the heap the most recent collection found live. Read
// right after a job, it is the job's working state (runners, trees,
// in-flight payloads) plus everything the workload keeps across jobs.
func liveHeapMiB() float64 {
	metrics.Read(liveSample)
	return float64(liveSample[0].Value.Uint64()) / (1 << 20)
}

// measured is the raw record of one run's measured phase.
type measured struct {
	ops      int64           // ops completed in the measured phase
	jobs     []time.Duration // every measured job's duration
	live     []float64       // liveHeapMiB after each measured job
	from, to usage
	setups   []time.Duration // each repetition of the set-up phase
}

// job records one measured job.
func (m *measured) job(d time.Duration) {
	m.jobs = append(m.jobs, d)
	m.live = append(m.live, liveHeapMiB())
}

// tail returns the highest percentile that still has at least ten jobs
// beyond it, the value there, and how many jobs lie beyond it. With ten
// jobs or fewer it falls back to the largest job.
func tail(jobs []time.Duration) (pct float64, v time.Duration, beyond int) {
	s := slices.Clone(jobs)
	slices.Sort(s)
	k := len(s) - 11
	if k < 0 {
		k = len(s) - 1
	}
	return 100 * float64(k+1) / float64(len(s)), s[k], len(s) - k - 1
}

// median is the middle value, or the mean of the middle two; 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd derives the seven end-to-end metrics and records how the
// tail was taken in info.
func (m *measured) endToEnd(info map[string]any) map[string]float64 {
	wall := m.to.at.Sub(m.from.at)
	ops := float64(m.ops)
	pct, tailV, beyond := tail(m.jobs)
	info["jobs"] = len(m.jobs)
	info["job_tail_percentile"] = pct
	info["job_tail_jobs_beyond"] = beyond
	info["measured_wall_s"] = wall.Seconds()
	info["setup_reps_s"] = durationsSeconds(m.setups)
	return map[string]float64{
		"ops_per_s":     ops / wall.Seconds(),
		"job_p50_ms":    ms(median(m.jobs)),
		"job_tail_ms":   ms(tailV),
		"cpu_us_per_op": float64((m.to.cpu - m.from.cpu).Microseconds()) / ops,
		"allocs_per_op": float64(m.to.mallocs-m.from.mallocs) / ops,
		"mem_live_mb":   median(m.live),
		"setup_s":       median(m.setups).Seconds(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
