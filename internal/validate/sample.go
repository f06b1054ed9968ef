package validate

import (
	"context"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/bigdeg"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/triangle"
)

// SampleOptions tunes the approximate validation mode. The zero value asks
// for the defaults.
type SampleOptions struct {
	// Bands is how many equal-size entry bands the triangle estimate
	// partitions the measured graph's degree-oriented pattern into; 0 means
	// 1024. Finer bands mean a lower-variance sample at the same fraction —
	// the triangle mass concentrates in a few regions of the pattern, and
	// coarse bands make any sample that includes (or misses) one wildly
	// over- (or under-) shoot; at 1024 bands a 1-in-8 sample lands within
	// a few percent.
	Bands int
	// Stride evaluates one band of every Stride consecutive bands; 0 means
	// 8, i.e. ~1/8 of the triangle intersection work. Stride 1 evaluates
	// every band, making the "estimate" the exact count.
	Stride int
}

const (
	defaultSampleBands  = 1024
	defaultSampleStride = 8
)

// SampledReport is the approximate counterpart of Report, for interactive
// checks on designs whose exact triangle count would take minutes. The
// degree side is NOT approximated — tallying degrees in flight costs one
// pass over the edges regardless — so vertices, edges, and the full degree
// distribution are exact, summarized against the prediction by a
// Kolmogorov–Smirnov statistic (0 means the distributions agree exactly).
// Only the superlinear phase, triangle counting, is sampled: one band of
// every Stride of the oriented pattern's entry bands is evaluated and the
// raw count scaled by the inverse sampling fraction.
type SampledReport struct {
	Design  *core.Design
	Workers int

	PredictedVertices  *big.Int
	PredictedEdges     *big.Int
	PredictedTriangles *big.Int
	PredictedDegrees   *bigdeg.Dist

	MeasuredVertices int64
	MeasuredEdges    int64
	MeasuredDegrees  *bigdeg.Dist

	// KSStatistic is the Kolmogorov–Smirnov distance between the predicted
	// and measured degree CDFs — exactly 0 when the exact distributions
	// agree point-for-point.
	KSStatistic float64

	// EstimatedTriangles scales the sampled bands' count by the inverse
	// sampling fraction; TriangleRelError is its relative deviation from the
	// predicted count (what the estimate is for — a fast "is this graph the
	// one I designed" signal, not an exact measurement).
	EstimatedTriangles float64
	TriangleRelError   float64
	// SampledBands of TotalBands entry bands were evaluated.
	SampledBands int
	TotalBands   int

	// ExactAgreement covers the exactly-measured properties only (vertices,
	// edges, degree distribution); triangles are judged by TriangleRelError.
	ExactAgreement bool
	Mismatches     []string
}

// RunSampled generates the design with np workers and measures everything
// that is cheap exactly — edges, vertices, the full degree distribution,
// from the pattern of the same one-shard RunShard pass Run merges — then
// estimates triangles from a deterministic sample of the bands of the
// degree-oriented pattern (triangle.Orient, which still checks the whole
// pattern). Each triangle sits in exactly one U entry, so the sampled
// count is scaled by total/picked bands and nothing else. On hub-dominated
// power-law graphs the triangle phase dominates validation end to end (the
// tally and scatter passes are linear in the edges; the intersections are
// not), so sampling it is what turns a 2^30-edge validation from a batch
// job into an interactive check.
func RunSampled(ctx context.Context, d *core.Design, nb, np int, opt SampleOptions) (*SampledReport, error) {
	if opt.Bands == 0 {
		opt.Bands = defaultSampleBands
	}
	if opt.Stride == 0 {
		opt.Stride = defaultSampleStride
	}
	if opt.Bands < 1 || opt.Stride < 1 {
		return nil, fmt.Errorf("validate: sample options need Bands ≥ 1 and Stride ≥ 1, got %d and %d",
			opt.Bands, opt.Stride)
	}
	whole, err := runWhole(ctx, d, nb, np)
	if err != nil {
		return nil, err
	}
	pred, err := d.Compute()
	if err != nil {
		return nil, err
	}
	a := whole.frag
	md, touched, err := degrees(a.RowPtr, np)
	if err != nil {
		return nil, err
	}
	rep := &SampledReport{
		Design:             d,
		Workers:            np,
		PredictedVertices:  pred.Vertices,
		PredictedEdges:     pred.Edges,
		PredictedTriangles: pred.Triangles,
		PredictedDegrees:   pred.Degrees,
		MeasuredVertices:   touched,
		MeasuredEdges:      int64(a.NNZ()),
		MeasuredDegrees:    md,
		KSStatistic:        ksStatistic(pred.Degrees, md),
	}

	st := obs.Stages.Stage(stageTriangles)
	u, err := triangle.Orient(ctx, a, np, st)
	if err != nil {
		return nil, err
	}
	bands := u.Bands(opt.Bands)
	picked := pickBands(bands, opt.Stride)
	raw, err := u.SumBands(ctx, picked, np, st)
	if err != nil {
		return nil, err
	}
	rep.TotalBands = len(bands)
	rep.SampledBands = len(picked)
	rep.EstimatedTriangles = float64(raw) * float64(len(bands)) / float64(len(picked))
	predTri, _ := new(big.Float).SetInt(pred.Triangles).Float64()
	if predTri > 0 {
		rep.TriangleRelError = (rep.EstimatedTriangles - predTri) / predTri
		if rep.TriangleRelError < 0 {
			rep.TriangleRelError = -rep.TriangleRelError
		}
	} else if rep.EstimatedTriangles != 0 {
		rep.TriangleRelError = 1
	}

	check := func(name string, predicted *big.Int, measured int64) {
		if predicted.Cmp(big.NewInt(measured)) != 0 {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: predicted %s, measured %d", name, predicted, measured))
		}
	}
	check("vertices", rep.PredictedVertices, rep.MeasuredVertices)
	check("edges", rep.PredictedEdges, rep.MeasuredEdges)
	if !bigdeg.Equal(rep.PredictedDegrees, rep.MeasuredDegrees) {
		rep.Mismatches = append(rep.Mismatches, "degree distribution differs")
	}
	rep.ExactAgreement = len(rep.Mismatches) == 0
	return rep, nil
}

// pickBands returns one band from each run of stride consecutive bands, at
// a position within the run fixed by a hash of where the run starts, so the
// sample is deterministic. A fixed position — every stride-th band — aliases
// with the periodic row structure of a Kronecker product. At the defaults
// on the fig4 workload, taking each run's first band read the triangle
// count 5.7% high, where the hashed positions read 2.6% low; over 25
// factor orders of that hub design the two averaged 5.7% and 3.3% off.
func pickBands(bands [][2]int, stride int) [][2]int {
	picked := make([][2]int, 0, (len(bands)+stride-1)/stride)
	for lo := 0; lo < len(bands); lo += stride {
		run := min(stride, len(bands)-lo)
		picked = append(picked, bands[lo+int(mix64(uint64(lo))%uint64(run))])
	}
	return picked
}

// mix64 is the SplitMix64 finalizer: a fixed, well-spread hash of x.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// String renders the sampled report in the style of Report.String, with the
// triangle row marked as an estimate.
func (r *SampledReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %v  workers: %d  (sampled: %d/%d triangle bands)\n",
		r.Design, r.Workers, r.SampledBands, r.TotalBands)
	fmt.Fprintf(&b, "%-12s %24s %24s\n", "property", "predicted", "measured")
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "vertices", r.PredictedVertices, r.MeasuredVertices)
	fmt.Fprintf(&b, "%-12s %24s %24d\n", "edges", r.PredictedEdges, r.MeasuredEdges)
	fmt.Fprintf(&b, "%-12s %24s %24.4g (estimate, %+.2f%%)\n", "triangles", r.PredictedTriangles,
		r.EstimatedTriangles, 100*r.TriangleRelError)
	fmt.Fprintf(&b, "degree KS statistic: %g\n", r.KSStatistic)
	if r.ExactAgreement {
		b.WriteString("RESULT: exact agreement on all exactly-measured properties\n")
	} else {
		fmt.Fprintf(&b, "RESULT: %d mismatches\n", len(r.Mismatches))
		for _, m := range r.Mismatches {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	return b.String()
}

// ksStatistic computes the Kolmogorov–Smirnov distance between two exact
// degree distributions: the maximum absolute difference of their CDFs over
// the union of degree supports, each CDF normalized by its own total count.
// The cumulative sums stay arbitrary-precision; only the final per-point
// differences round to float64. Two empty distributions are distance 0; an
// empty one against a non-empty one is distance 1.
func ksStatistic(p, m *bigdeg.Dist) float64 {
	pe, me := p.Entries(), m.Entries()
	pt, mt := p.SumCounts(), m.SumCounts()
	pEmpty, mEmpty := pt.Sign() == 0, mt.Sign() == 0
	if pEmpty && mEmpty {
		return 0
	}
	if pEmpty != mEmpty {
		return 1
	}
	cumP, cumM := new(big.Int), new(big.Int)
	var maxDiff big.Rat
	var diff big.Rat
	i, j := 0, 0
	for i < len(pe) || j < len(me) {
		// Advance over the next degree in the union, folding counts from
		// whichever distributions have mass there.
		switch {
		case j >= len(me) || (i < len(pe) && pe[i].D.Cmp(me[j].D) < 0):
			cumP.Add(cumP, pe[i].N)
			i++
		case i >= len(pe) || pe[i].D.Cmp(me[j].D) > 0:
			cumM.Add(cumM, me[j].N)
			j++
		default:
			cumP.Add(cumP, pe[i].N)
			cumM.Add(cumM, me[j].N)
			i++
			j++
		}
		diff.Sub(new(big.Rat).SetFrac(cumP, pt), new(big.Rat).SetFrac(cumM, mt))
		if diff.Sign() < 0 {
			diff.Neg(&diff)
		}
		if diff.Cmp(&maxDiff) > 0 {
			maxDiff.Set(&diff)
		}
	}
	out, _ := maxDiff.Float64()
	return out
}
