package core

import (
	"math/big"
	"testing"

	"repro/internal/star"
)

func mustDesign(t *testing.T, points []int, loop star.LoopMode) *Design {
	t.Helper()
	d, err := FromPoints(points, loop)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wantBig(t *testing.T, name string, got *big.Int, want string) {
	t.Helper()
	w, ok := new(big.Int).SetString(want, 10)
	if !ok {
		t.Fatalf("bad literal %q", want)
	}
	if got.Cmp(w) != 0 {
		t.Errorf("%s = %s, want %s", name, got, want)
	}
}

func TestNewDesignValidation(t *testing.T) {
	if _, err := NewDesign(nil); err == nil {
		t.Error("empty design accepted")
	}
	if _, err := FromPoints([]int{3, 1}, star.LoopNone); err == nil {
		t.Error("invalid factor accepted")
	}
	mixed := []star.Spec{
		{Points: 3, Loop: star.LoopHub},
		{Points: 4, Loop: star.LoopLeaf},
	}
	if _, err := NewDesign(mixed); err == nil {
		t.Error("mixed loop modes accepted")
	}
}

func TestFactorsAreCopied(t *testing.T) {
	specs := star.Specs([]int{3, 4}, star.LoopNone)
	d, err := NewDesign(specs)
	if err != nil {
		t.Fatal(err)
	}
	specs[0].Points = 99
	if d.Factors()[0].Points != 3 {
		t.Error("design shares caller's slice")
	}
	f := d.Factors()
	f[0].Points = 77
	if d.Factors()[0].Points != 3 {
		t.Error("Factors() exposes internal slice")
	}
}

// --- The paper's Section VI exact counts -------------------------------

// T2: the trillion-edge no-loop graph of Figure 3's run:
// B = m̂{3,4,5,9,16,25} (530,400 vertices, 13,824,000 edges),
// C = m̂{81,256} (21,074 vertices, 82,944 edges),
// A = B ⊗ C with 11,177,649,600 vertices, 1,146,617,856,000 edges, 0 triangles.
func TestTrillionNoLoopExactCounts(t *testing.T) {
	b := mustDesign(t, []int{3, 4, 5, 9, 16, 25}, star.LoopNone)
	wantBig(t, "B vertices", b.NumVertices(), "530400")
	wantBig(t, "B edges", b.NumEdges(), "13824000")

	c := mustDesign(t, []int{81, 256}, star.LoopNone)
	wantBig(t, "C vertices", c.NumVertices(), "21074")
	wantBig(t, "C edges", c.NumEdges(), "82944")

	a := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256}, star.LoopNone)
	wantBig(t, "A vertices", a.NumVertices(), "11177649600")
	wantBig(t, "A edges", a.NumEdges(), "1146617856000")
	tri, err := a.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	wantBig(t, "A triangles", tri, "0")
}

// T1 / Figure 4: the trillion-edge hub-loop graph:
// B = m̂{3,4,5,9,16,25} with hub loops (530,400 vertices, 22,160,060 edges),
// C = m̂{81,256} with hub loops (21,074 vertices, 83,618 edges), and
// A with 11,177,649,600 vertices, 1,853,002,140,758 edges,
// 6,777,007,252,427 triangles.
func TestTrillionHubLoopExactCounts(t *testing.T) {
	b := mustDesign(t, []int{3, 4, 5, 9, 16, 25}, star.LoopHub)
	wantBig(t, "B vertices", b.NumVertices(), "530400")
	wantBig(t, "B edges", b.NumEdges(), "22160060")

	c := mustDesign(t, []int{81, 256}, star.LoopHub)
	wantBig(t, "C vertices", c.NumVertices(), "21074")
	wantBig(t, "C edges", c.NumEdges(), "83618")

	a := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256}, star.LoopHub)
	wantBig(t, "A vertices", a.NumVertices(), "11177649600")
	wantBig(t, "A edges", a.NumEdges(), "1853002140758")
	tri, err := a.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	wantBig(t, "A triangles", tri, "6777007252427")
}

// powerLawDeviation returns how far d's degree distribution lies from
// n(d) = n(1)/d^α in log space.
func powerLawDeviation(t *testing.T, d *Design) float64 {
	t.Helper()
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dist.PowerLawDeviation()
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// Figure 5: quadrillion-edge no-loop graph.
func TestFig5QuadrillionNoLoop(t *testing.T) {
	a := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256, 625}, star.LoopNone)
	wantBig(t, "vertices", a.NumVertices(), "6997208649600")
	wantBig(t, "edges", a.NumEdges(), "1433272320000000")
	tri, err := a.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	wantBig(t, "triangles", tri, "0")
	// The no-loop design's degree distribution lies exactly on the power law.
	if dev := powerLawDeviation(t, a); dev > 1e-9 {
		t.Errorf("Figure 5 design not an exact power law (deviation %g)", dev)
	}
	wantDegrees(t, a, 512, "2799360000000", "2799360000000")
}

// Figure 6: quadrillion-edge hub-loop graph.
func TestFig6QuadrillionHubLoop(t *testing.T) {
	a := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256, 625}, star.LoopHub)
	wantBig(t, "vertices", a.NumVertices(), "6997208649600")
	wantBig(t, "edges", a.NumEdges(), "2318105678089508")
	tri, err := a.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 6 caption prints 12,720,651,636,552,426; the
	// paper's own formula (1/6)∏(3m̂+1) − mA/2 + 1/3, which reproduces the
	// Figure 4 and Figure 7 counts bit-for-bit and is confirmed by brute
	// force on small graphs (internal/triangle tests), yields ...427. We
	// assert the formula's value and record the one-off discrepancy in
	// EXPERIMENTS.md.
	wantBig(t, "triangles", tri, "12720651636552427")
	// Hub loops push points off the exact power law (small deviations,
	// Figure 6).
	if dev := powerLawDeviation(t, a); dev <= 1e-9 {
		t.Errorf("Figure 6 design unexpectedly exact (deviation %g)", dev)
	}
	wantDegrees(t, a, 512, "2799360000000", "6997208649599")
}

// Figure 7: the decetta-scale (10³⁰ edge) leaf-loop graph, computable on a
// laptop in minutes per the paper — and in milliseconds here.
func TestFig7DecettaLeafLoop(t *testing.T) {
	pts := []int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641}
	a := mustDesign(t, pts, star.LoopLeaf)
	wantBig(t, "vertices", a.NumVertices(), "144111718793178936483840000")
	wantBig(t, "edges", a.NumEdges(), "2705963586782877716483871216764")
	tri, err := a.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	wantBig(t, "triangles", tri, "178940587")
	wantDegrees(t, a, 86017, "10684262234927923200000000", "44925594092297614080000000")
}

// wantDegrees pins a design's degree distribution: ΣN against the vertex
// count, Σd·n against the edge count, and its number of distinct degrees,
// n(1) and largest degree.
func wantDegrees(t *testing.T, a *Design, distinct int, n1, dmax string) {
	t.Helper()
	dist, err := a.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if dist.SumCounts().Cmp(a.NumVertices()) != 0 {
		t.Errorf("Σn(d) = %s, want %s vertices", dist.SumCounts(), a.NumVertices())
	}
	if dist.SumDegreeWeighted().Cmp(a.NumEdges()) != 0 {
		t.Errorf("Σd·n(d) = %s, want %s edges", dist.SumDegreeWeighted(), a.NumEdges())
	}
	if dist.Len() != distinct {
		t.Errorf("distinct degrees = %d, want %d", dist.Len(), distinct)
	}
	wantBig(t, "n(1)", dist.CountAt(big.NewInt(1)), n1)
	wantBig(t, "max degree", dist.MaxDegree(), dmax)
}

// --- Structural properties ---------------------------------------------

func TestDegreeDistributionInvariants(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
	}{
		{[]int{3, 4}, star.LoopNone},
		{[]int{3, 4, 5}, star.LoopHub},
		{[]int{3, 4, 5}, star.LoopLeaf},
		{[]int{5, 3}, star.LoopHub},
		{[]int{81, 256}, star.LoopLeaf},
	}
	for _, tc := range cases {
		d := mustDesign(t, tc.pts, tc.loop)
		dist, err := d.DegreeDistribution()
		if err != nil {
			t.Fatal(err)
		}
		// Every vertex of a star product has degree ≥ 1, so ΣN = mA.
		if dist.SumCounts().Cmp(d.NumVertices()) != 0 {
			t.Errorf("%v: Σn(d) = %s, want %s vertices", d, dist.SumCounts(), d.NumVertices())
		}
		// Σ d·n(d) = nnz(A) = edges.
		if dist.SumDegreeWeighted().Cmp(d.NumEdges()) != 0 {
			t.Errorf("%v: Σd·n(d) = %s, want %s edges", d, dist.SumDegreeWeighted(), d.NumEdges())
		}
	}
}

func TestTrillionDegreeDistributionMoments(t *testing.T) {
	a := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256}, star.LoopHub)
	dist, err := a.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if dist.SumCounts().Cmp(a.NumVertices()) != 0 {
		t.Error("trillion design: Σn(d) != vertices")
	}
	if dist.SumDegreeWeighted().Cmp(a.NumEdges()) != 0 {
		t.Error("trillion design: Σd·n(d) != edges")
	}
	// The paper's ratio line: Nedge/Nvertex ≈ 165.7774.
	ratio := new(big.Rat).SetFrac(a.NumEdges(), a.NumVertices())
	f, _ := ratio.Float64()
	if f < 165.77 || f > 165.79 {
		t.Errorf("edge/vertex ratio %.4f, want ≈165.7774", f)
	}
}

func TestHubLoopDegreeAdjustment(t *testing.T) {
	d := mustDesign(t, []int{3, 4}, star.LoopHub)
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-removal hub degree = mA = 20; after removal the hub has 19.
	if got := dist.CountAt(big.NewInt(20)); got.Sign() != 0 {
		t.Errorf("n(20) = %s, want 0 after loop removal", got)
	}
	if got := dist.CountAt(big.NewInt(19)); got.Int64() != 1 {
		t.Errorf("n(19) = %s, want 1", got)
	}
}

func TestLeafLoopDegreeAdjustment(t *testing.T) {
	// All-odd m̂ so no other degree product can collide with 2^Nₖ = 8
	// (any product containing an m̂ is odd·2^j with j < 3).
	d := mustDesign(t, []int{3, 5, 7}, star.LoopLeaf)
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	// The all-loop leaf vertex drops from degree 8 to 7.
	if got := dist.CountAt(big.NewInt(8)); got.Sign() != 0 {
		t.Errorf("n(8) = %s, want 0 after loop removal", got)
	}
	// Degree 7: 1·1·7 products (2·4 vertices) plus the adjusted loop vertex.
	if got := dist.CountAt(big.NewInt(7)).Int64(); got != 9 {
		t.Errorf("n(7) = %d, want 9", got)
	}
}

func TestLeafLoopDegreeAdjustmentWithCollision(t *testing.T) {
	// {3,4,5} has other vertices at degree 8 (e.g. 2·4·1); the adjustment
	// must decrement by exactly one, not zero the bucket.
	d := mustDesign(t, []int{3, 4, 5}, star.LoopLeaf)
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.CountAt(big.NewInt(8)).Int64(); got != 6 {
		t.Errorf("n(8) = %d, want 6 (7 pre-removal minus the loop vertex)", got)
	}
}

func TestAlphaNearOne(t *testing.T) {
	d := mustDesign(t, []int{3, 4, 5, 9, 16, 25, 81, 256}, star.LoopNone)
	dist, err := d.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := dist.Alpha()
	if err != nil {
		t.Fatal(err)
	}
	// Star products follow n(d) = n(1)/d: α = log n(1)/log dmax with
	// n(1) = ∏m̂ = dmax, hence exactly 1.
	if alpha < 0.999999 || alpha > 1.000001 {
		t.Errorf("alpha = %v, want 1", alpha)
	}
}

func TestComputeAndReport(t *testing.T) {
	d := mustDesign(t, []int{3, 4, 5}, star.LoopHub)
	p, err := d.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if p.Vertices.Int64() != 120 {
		t.Errorf("vertices = %s, want 120", p.Vertices)
	}
	if p.Edges.Int64() != 7*9*11-1 {
		t.Errorf("edges = %s, want %d", p.Edges, 7*9*11-1)
	}
	rep := p.Report()
	if len(rep) == 0 {
		t.Error("empty report")
	}
}

func TestStringFormat(t *testing.T) {
	d := mustDesign(t, []int{3, 4}, star.LoopHub)
	if got := d.String(); got != "kron[hub m̂={3,4}]" {
		t.Errorf("String() = %q", got)
	}
}

func TestTriangleClosedFormsSmall(t *testing.T) {
	// Figure 2 top: m̂ = {5, 3} hub loops → 15 triangles.
	top := mustDesign(t, []int{5, 3}, star.LoopHub)
	tri, err := top.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if tri.Int64() != 15 {
		t.Errorf("Fig 2 top triangles = %s, want 15", tri)
	}
	// Figure 2 bottom: m̂ = {5, 3} leaf loops → 1 triangle (the body text's
	// count; the caption's "3" is inconsistent with the paper's own
	// formula — see EXPERIMENTS.md).
	bottom := mustDesign(t, []int{5, 3}, star.LoopLeaf)
	tri2, err := bottom.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if tri2.Int64() != 1 {
		t.Errorf("Fig 2 bottom triangles = %s, want 1", tri2)
	}
	// The same design from explicit star specs.
	specs, err := NewDesign([]star.Spec{
		{Points: 5, Loop: star.LoopLeaf},
		{Points: 3, Loop: star.LoopLeaf},
	})
	if err != nil {
		t.Fatal(err)
	}
	tri3, err := specs.Triangles()
	if err != nil {
		t.Fatal(err)
	}
	if tri3.Int64() != 1 {
		t.Errorf("Fig 2 bottom from specs: triangles = %s, want 1", tri3)
	}
}
