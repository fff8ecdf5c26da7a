// Command bwexp reproduces the paper's evaluation: every figure and table
// of Section 4, plus the ablation and overlay studies described in
// DESIGN.md.
//
// Usage:
//
//	bwexp -exp fig4                 # one experiment at default scale
//	bwexp -exp all -trees 2000      # the whole evaluation, larger population
//	bwexp -exp fig4 -paper          # the paper's full 25,000×10,000 scale
//	bwexp -exp paperscale -json paperscale.json   # full-scale streamed sweep + artifact
//	bwexp -bench-json               # write the BENCH_<date>.json perf baseline
//	bwexp -exp fig4 -cpuprofile cpu.pb.gz   # profile a sweep (also -memprofile, -trace)
//
// Experiments: fig3 fig4 fig5 fig6 fig7 table1 table2 paperscale
// ablation-policy ablation-interrupt ablation-decay churn detector
// fairness overlay overlay-improve all. Figure 6 and Table 1 reuse
// Figure 4's populations, so "-exp all" runs those simulations once;
// paperscale streams Figure 4 + Table 1 at the paper's full scale and is
// not part of "all".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"bwcs/internal/experiments"
	"bwcs/internal/export"
)

// exportFig4 writes the figure 4 populations as per-protocol CSVs plus one
// JSON document.
func exportFig4(dir string, r *experiments.Fig4Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range r.Populations {
		p := &r.Populations[i]
		name := fmt.Sprintf("fig4_%s.csv", sanitize(p.Protocol.Label))
		if err := writeFile(dir, name, func(w io.Writer) error {
			return export.PopulationCSV(w, p)
		}); err != nil {
			return err
		}
	}
	return writeFile(dir, "fig4.json", func(w io.Writer) error {
		return export.PopulationsJSON(w, r.Populations)
	})
}

// exportFig5 writes each class's populations as CSVs.
func exportFig5(dir string, r *experiments.Fig5Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cls := range r.Classes {
		for i := range cls.Populations {
			p := &cls.Populations[i]
			name := fmt.Sprintf("fig5_x%d_%s.csv", cls.X, sanitize(p.Protocol.Label))
			if err := writeFile(dir, name, func(w io.Writer) error {
				return export.PopulationCSV(w, p)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeFile(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(dir + string(os.PathSeparator) + name)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSONPath writes v as indented JSON to path, creating parent
// directories as needed.
func writeJSONPath(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return strings.ToLower(string(out))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwexp", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id: fig3 fig4 fig5 fig6 fig7 reconverge table1 table2 paperscale ablation-policy ablation-interrupt ablation-decay churn detector fairness overlay overlay-improve all")
		trees     = fs.Int("trees", 0, "population size (0 = experiment default)")
		tasks     = fs.Int64("tasks", 0, "application size (0 = experiment default)")
		seed      = fs.Uint64("seed", 0, "generator seed (0 = default)")
		threshold = fs.Int("threshold", -1, "onset window threshold (-1 = paper's 300)")
		workers   = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		graphs    = fs.Int("graphs", 60, "host graphs for the overlay study")
		churn     = fs.Int("churn", 6, "churn events per run for the churn study")
		paper     = fs.Bool("paper", false, "use the paper's full scale (25000 trees, 10000 tasks)")
		quiet     = fs.Bool("q", false, "suppress progress timing")
		csvDir    = fs.String("csv", "", "also write machine-readable results (CSV/JSON) into this directory")
		jsonOut   = fs.String("json", "", "write the experiment's JSON artifact to this path (paperscale)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace to this file")
		benchJSON  = fs.Bool("bench-json", false, "run the scaled-down figure benchmarks and write BENCH_<date>.json")
		benchOut   = fs.String("bench-out", ".", "directory for the -bench-json baseline file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bwexp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bwexp: memprofile:", err)
			}
		}()
	}

	if *benchJSON {
		_, err := runBenchJSON(out, *benchOut, *trees, *tasks)
		return err
	}

	o := experiments.Default()
	if *paper {
		o = experiments.Paper()
	}
	if *trees > 0 {
		o.Trees = *trees
	}
	if *tasks > 0 {
		o.Tasks = *tasks
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	if *threshold >= 0 {
		o.Threshold = *threshold
	}
	if *workers > 0 {
		o.Workers = *workers
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"fig3", "fig4", "table1", "fig6", "fig5", "table2", "fig7", "reconverge", "ablation-policy", "ablation-interrupt", "ablation-decay", "churn", "detector", "fairness", "overlay", "overlay-improve"}
	}

	// Figure 4's populations back Table 1 and Figure 6.
	var f4 *experiments.Fig4Result
	needFig4 := func() (*experiments.Fig4Result, error) {
		if f4 != nil {
			return f4, nil
		}
		var err error
		f4, err = experiments.Fig4(o)
		return f4, err
	}

	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(out, "\n"+strings.Repeat("=", 78)+"\n")
		}
		if *quiet {
			o.Progress = nil
		} else {
			o.Progress = progressFunc(id)
		}
		start := time.Now()
		var err error
		switch id {
		case "fig3":
			var r *experiments.Fig3Result
			if r, err = experiments.Fig3(o); err == nil {
				err = r.Render(out)
			}
		case "fig4":
			var r *experiments.Fig4Result
			if r, err = needFig4(); err == nil {
				err = r.Render(out)
			}
			if err == nil && *csvDir != "" {
				err = exportFig4(*csvDir, r)
			}
		case "table1":
			var r4 *experiments.Fig4Result
			if r4, err = needFig4(); err == nil {
				var r *experiments.Table1Result
				if r, err = experiments.Table1(r4); err == nil {
					err = r.Render(out)
				}
			}
		case "fig6":
			var r4 *experiments.Fig4Result
			if r4, err = needFig4(); err == nil {
				var r *experiments.Fig6Result
				if r, err = experiments.Fig6(r4); err == nil {
					err = r.Render(out)
				}
			}
		case "fig5":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(o); err == nil {
				err = r.Render(out)
			}
			if err == nil && *csvDir != "" {
				err = exportFig5(*csvDir, r)
			}
		case "table2":
			to := o
			if *tasks == 0 && to.Tasks < 4000 {
				to.Tasks = 4000 // the paper's Table 2 horizon
			}
			var r *experiments.Table2Result
			if r, err = experiments.Table2(to); err == nil {
				err = r.Render(out)
			}
		case "paperscale":
			// Full paper scale by default — 25,000 trees × 10,000 tasks,
			// streamed — unless the caller sized the sweep explicitly.
			po := o
			if !*paper {
				pp := experiments.Paper()
				if *trees == 0 {
					po.Trees = pp.Trees
				}
				if *tasks == 0 {
					po.Tasks = pp.Tasks
				}
			}
			var r *experiments.PaperScaleResult
			if r, err = experiments.PaperScale(po); err == nil {
				err = r.Render(out)
			}
			if err == nil && *jsonOut != "" {
				err = writeJSONPath(*jsonOut, r.JSON())
			}
		case "fig7":
			var r *experiments.Fig7Result
			if r, err = experiments.Fig7(0, 0); err == nil {
				err = r.Render(out)
			}
		case "reconverge":
			var r *experiments.ReconvergeResult
			if r, err = experiments.Reconverge(*tasks, 0); err == nil {
				err = r.Render(out)
			}
			if err == nil && *jsonOut != "" {
				err = writeJSONPath(*jsonOut, r.JSON())
			}
		case "ablation-policy":
			var r *experiments.AblationPolicyResult
			if r, err = experiments.AblationPolicy(o); err == nil {
				err = r.Render(out)
			}
		case "ablation-interrupt":
			var r *experiments.AblationInterruptResult
			if r, err = experiments.AblationInterrupt(o); err == nil {
				err = r.Render(out)
			}
		case "ablation-decay":
			var r *experiments.AblationDecayResult
			if r, err = experiments.AblationDecay(o); err == nil {
				err = r.Render(out)
			}
		case "churn":
			var r *experiments.ChurnResult
			if r, err = experiments.Churn(o, *churn); err == nil {
				err = r.Render(out)
			}
		case "fairness":
			fo := o
			if *trees == 0 && fo.Trees > 150 {
				fo.Trees = 150 // 7 tenant counts × population; keep the sweep interactive
			}
			var r *experiments.FairnessResult
			if r, err = experiments.Fairness(fo); err == nil {
				err = r.Render(out)
			}
		case "detector":
			var r *experiments.DetectorResult
			if r, err = experiments.Detector(o); err == nil {
				err = r.Render(out)
			}
		case "overlay-improve":
			var r *experiments.OverlayImproveResult
			if r, err = experiments.OverlayImprove(o, *graphs/3+1, 0); err == nil {
				err = r.Render(out)
			}
		case "overlay":
			var r *experiments.OverlayResult
			if r, err = experiments.Overlay(o, *graphs); err == nil {
				err = r.Render(out)
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !*quiet {
			fmt.Fprintf(out, "\n[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// progressFunc returns an experiments progress callback that rewrites a
// single stderr line per sweep call, throttled so tight sweeps don't
// spend their time printing. A sweep runs every protocol on each tree
// before reporting it, so the rate counts trees under all protocols.
// Progress goes to stderr so redirected stdout stays clean experiment
// output.
func progressFunc(label string) func(done, total int) {
	var last time.Time
	start := time.Now()
	return func(done, total int) {
		now := time.Now()
		if done < total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		rate := float64(done) / time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trees (%.0f trees/sec)   ", label, done, total, rate)
		if done == total {
			fmt.Fprintln(os.Stderr)
			start = time.Now() // next sweep call (same experiment) restarts the rate
		}
	}
}
