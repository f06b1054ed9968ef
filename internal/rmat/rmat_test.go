package rmat

import (
	"testing"
)

func TestValidate(t *testing.T) {
	if err := Graph500(10, 16, 1).Validate(); err != nil {
		t.Errorf("reference params rejected: %v", err)
	}
	bad := []Params{
		{Scale: 0, EdgeFactor: 16, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 50, EdgeFactor: 16, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 10, EdgeFactor: 0, A: 0.25, B: 0.25, C: 0.25, D: 0.25},
		{Scale: 10, EdgeFactor: 16, A: 0.9, B: 0.3, C: 0.1, D: 0.1},
		{Scale: 10, EdgeFactor: 16, A: 1.2, B: -0.2, C: 0.5, D: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestCounts(t *testing.T) {
	p := Graph500(8, 16, 1)
	if p.NumVertices() != 256 {
		t.Errorf("vertices = %d, want 256", p.NumVertices())
	}
	if p.NumSampledEdges() != 4096 {
		t.Errorf("samples = %d, want 4096", p.NumSampledEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Graph500(8, 8, 42)
	e1, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e2) || len(e1) != int(p.NumSampledEdges()) {
		t.Fatalf("lengths %d, %d, want %d", len(e1), len(e2), p.NumSampledEdges())
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	p := Graph500(9, 8, 7)
	edges, err := Generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumVertices()
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			t.Fatalf("edge %v out of bounds for %d vertices", e, n)
		}
	}
}

func TestSkewedQuadrantBias(t *testing.T) {
	// With a = 1 every edge must be (0, 0): pure top-left descent.
	p := Params{Scale: 6, EdgeFactor: 4, A: 1, B: 0, C: 0, D: 0, Seed: 3}
	edges, err := Generate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.Src != 0 || e.Dst != 0 {
			t.Fatalf("a=1 produced edge %v, want (0,0)", e)
		}
	}
	// With d = 1 every edge must be (n-1, n-1).
	p2 := Params{Scale: 6, EdgeFactor: 4, A: 0, B: 0, C: 0, D: 1, Seed: 3}
	edges2, err := Generate(p2, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := p2.NumVertices() - 1
	for _, e := range edges2 {
		if e.Src != last || e.Dst != last {
			t.Fatalf("d=1 produced edge %v, want (%d,%d)", e, last, last)
		}
	}
}

func TestMeasure(t *testing.T) {
	edges := []Edge{
		{0, 1}, {1, 0}, {0, 1}, // one duplicate
		{2, 2}, // self-loop
		{3, 1},
	}
	m := Measure(edges, 8)
	if m.SelfLoops != 1 {
		t.Errorf("self-loops = %d, want 1", m.SelfLoops)
	}
	if m.DuplicateSamples != 1 {
		t.Errorf("duplicates = %d, want 1", m.DuplicateSamples)
	}
	if m.UniqueEdges != 3 {
		t.Errorf("unique = %d, want 3", m.UniqueEdges)
	}
	// Vertices 0,1,3 touched; 2 only via its self-loop (dropped) so empty.
	if m.NonEmptyVertices != 3 {
		t.Errorf("non-empty = %d, want 3", m.NonEmptyVertices)
	}
	if m.EmptyVertices != 5 {
		t.Errorf("empty = %d, want 5", m.EmptyVertices)
	}
	// Structural degrees: 0↔1 (both directions collapse to one neighbor
	// relation per side), 1–3: deg(0)=1, deg(1)=2, deg(3)=1.
	if m.DegreeHist[1] != 2 || m.DegreeHist[2] != 1 {
		t.Errorf("degree hist = %v", m.DegreeHist)
	}
	if m.MaxDegree != 2 {
		t.Errorf("max degree = %d, want 2", m.MaxDegree)
	}
}

// R-MAT at realistic skew produces the artifacts the paper calls out: empty
// vertices, self-loops, and duplicate samples.
func TestRMATProducesArtifacts(t *testing.T) {
	p := Graph500(12, 16, 11)
	edges, err := Generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(edges, p.NumVertices())
	if m.EmptyVertices == 0 {
		t.Error("expected empty vertices at Graph500 skew")
	}
	if m.SelfLoops == 0 {
		t.Error("expected self-loops")
	}
	if m.DuplicateSamples == 0 {
		t.Error("expected duplicate samples")
	}
}

func TestTrialAndErrorConverges(t *testing.T) {
	base := Graph500(10, 4, 5)
	// Target: roughly what edge factor 8 yields; the loop must adapt.
	trials, err := TrialAndError(base, 6000, 0.25, 8, 2)
	if err != nil {
		t.Fatalf("did not converge: %v (trials: %d)", err, len(trials))
	}
	if len(trials) == 0 {
		t.Fatal("no trials recorded")
	}
	last := trials[len(trials)-1]
	if last.TargetError > 0.25 {
		t.Errorf("final error %v > tolerance", last.TargetError)
	}
}

func TestTrialAndErrorValidation(t *testing.T) {
	base := Graph500(8, 4, 1)
	if _, err := TrialAndError(base, 0, 0.1, 5, 1); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := TrialAndError(base, 100, 0, 5, 1); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := TrialAndError(base, 100, 0.1, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}
