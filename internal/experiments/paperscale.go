package experiments

import (
	"fmt"
	"io"
	"time"
)

// PaperScale runs the paper's full evaluation scale as one routine
// artifact: the four Figure 4 protocol variants swept over the whole
// tree population in streaming mode (no per-tree outcomes are
// materialized, so the 25,000 × 10,000 sweep runs in O(Tasks) memory per
// protocol), with Table 1 derived from the same runs. Options defaults
// come from Paper(); smaller values make smoke runs.
type PaperScaleResult struct {
	Fig4    *Fig4Result
	Table1  *Table1Result
	Elapsed time.Duration
}

// PaperScale runs the streaming full-scale sweep.
func PaperScale(o Options) (*PaperScaleResult, error) {
	o.Stream = true
	start := time.Now()
	f4, err := Fig4(o)
	if err != nil {
		return nil, err
	}
	t1, err := Table1(f4)
	if err != nil {
		return nil, err
	}
	return &PaperScaleResult{Fig4: f4, Table1: t1, Elapsed: time.Since(start)}, nil
}

// Render writes the figure-4 CDF, the headline fractions and Table 1.
func (r *PaperScaleResult) Render(w io.Writer) error {
	if err := r.Fig4.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := r.Table1.Render(w); err != nil {
		return err
	}
	pops := r.Fig4.Populations
	fmt.Fprintf(w, "\npaper-scale sweep: %d simulations in %v (%.0f trees/sec, each tree under all %d protocols)\n",
		pops[0].Agg.Trees*len(pops), r.Elapsed.Round(time.Millisecond), pops[0].Sweep.TreesPerSec, len(pops))
	return nil
}

// PaperScaleJSON is the machine-readable paper-scale artifact the CI job
// uploads; the schema is versioned independently of the bench baseline.
// Schema v2 moved trees_per_sec from each protocol to the top level: the
// protocols share one tree-major sweep, so it describes the whole run.
type PaperScaleJSON struct {
	Schema      string            `json:"schema"`
	Trees       int               `json:"trees"`
	Tasks       int64             `json:"tasks"`
	Threshold   int               `json:"threshold"`
	Seed        uint64            `json:"seed"`
	ElapsedSec  float64           `json:"elapsed_sec"`
	TreesPerSec float64           `json:"trees_per_sec"`
	Protocols   []PaperScaleProto `json:"protocols"`
	Table1      PaperScaleTable1  `json:"table1"`
}

// PaperScaleProto is one protocol's aggregate in the JSON artifact.
type PaperScaleProto struct {
	Label           string    `json:"label"`
	ReachedFraction float64   `json:"reached_fraction"`
	MedianOnset     int64     `json:"median_onset"`
	MaxNodeUsed     int64     `json:"max_node_used"`
	CDFX            []int64   `json:"cdf_x"`
	CDFY            []float64 `json:"cdf_y"`
}

// PaperScaleTable1 mirrors Table1Result for the artifact.
type PaperScaleTable1 struct {
	Buckets []int64   `json:"buckets"`
	NonIC   []float64 `json:"non_ic"`
	IC      []float64 `json:"ic"`
}

// JSON reduces the result to its artifact form.
func (r *PaperScaleResult) JSON() PaperScaleJSON {
	o := r.Fig4.Options
	out := PaperScaleJSON{
		Schema:      "bwcs-paperscale/v2",
		Trees:       o.Trees,
		Tasks:       o.Tasks,
		Threshold:   o.Threshold,
		Seed:        o.Seed,
		ElapsedSec:  r.Elapsed.Seconds(),
		TreesPerSec: r.Fig4.Populations[0].Sweep.TreesPerSec,
		Table1: PaperScaleTable1{
			Buckets: Table1Buckets,
			NonIC:   r.Table1.NonIC,
			IC:      r.Table1.IC,
		},
	}
	xs := gridInt64(int(o.Tasks)/2, 60)
	for i := range r.Fig4.Populations {
		p := &r.Fig4.Populations[i]
		out.Protocols = append(out.Protocols, PaperScaleProto{
			Label:           p.Protocol.Label,
			ReachedFraction: p.ReachedFraction(),
			MedianOnset:     p.MedianOnset(),
			MaxNodeUsed:     p.Agg.MaxNodeUsedMax,
			CDFX:            xs,
			CDFY:            p.OnsetCDF(xs),
		})
	}
	return out
}
