package star

import (
	"testing"
	"testing/quick"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

var sr = semiring.PlusTimesInt64()

func TestValidate(t *testing.T) {
	if err := (Spec{Points: 3, Loop: LoopNone}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{Points: 1, Loop: LoopNone}).Validate(); err == nil {
		t.Error("m̂=1 accepted")
	}
	if err := (Spec{Points: 5, Loop: LoopMode(9)}).Validate(); err == nil {
		t.Error("bogus loop mode accepted")
	}
}

func TestLoopModeRoundTrip(t *testing.T) {
	for _, m := range []LoopMode{LoopNone, LoopHub, LoopLeaf} {
		got, err := ParseLoopMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLoopMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseLoopMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
	if s := LoopMode(42).String(); s != "LoopMode(42)" {
		t.Errorf("unknown mode String() = %q", s)
	}
}

func TestAdjacencyShape(t *testing.T) {
	for _, mode := range []LoopMode{LoopNone, LoopHub, LoopLeaf} {
		s := Spec{Points: 5, Loop: mode}
		a := s.Adjacency()
		if a.NumRows != 6 || a.NumCols != 6 {
			t.Fatalf("%v: dims %dx%d, want 6x6", s, a.NumRows, a.NumCols)
		}
		if int64(a.NNZ()) != s.NNZ() {
			t.Errorf("%v: nnz %d, want %d", s, a.NNZ(), s.NNZ())
		}
		if !a.IsSymmetric(sr) {
			t.Errorf("%v: adjacency not symmetric", s)
		}
	}
}

func TestAdjacencyLoopPlacement(t *testing.T) {
	hub := Spec{Points: 4, Loop: LoopHub}.Adjacency()
	if hub.At(0, 0, sr) != 1 {
		t.Error("hub loop missing at (0,0)")
	}
	leaf := Spec{Points: 4, Loop: LoopLeaf}.Adjacency()
	if leaf.At(4, 4, sr) != 1 {
		t.Error("leaf loop missing at (m-1,m-1)")
	}
	none := Spec{Points: 4, Loop: LoopNone}.Adjacency()
	if sparse.Trace(none, sr) != 0 {
		t.Error("plain star has a diagonal entry")
	}
}

// The closed-form degree distribution must match the realized matrix for all
// modes and a range of sizes.
func TestDegreeDistributionMatchesRealized(t *testing.T) {
	for _, mode := range []LoopMode{LoopNone, LoopHub, LoopLeaf} {
		for _, mh := range []int{2, 3, 4, 5, 9, 16, 25, 81} {
			s := Spec{Points: mh, Loop: mode}
			want := s.DegreeDistribution()
			got := sparse.DegreeHistogram(s.Adjacency(), sr)
			if len(got) != len(want) {
				t.Fatalf("%v: histogram %v, want %v", s, got, want)
			}
			for d, n := range want {
				if int64(got[int(d)]) != n {
					t.Errorf("%v: n(%d) = %d, want %d", s, d, got[int(d)], n)
				}
			}
		}
	}
}

// The closed-form trace(A³) must match the sparse-substrate computation.
func TestTraceA3MatchesComputed(t *testing.T) {
	for _, mode := range []LoopMode{LoopNone, LoopHub, LoopLeaf} {
		for _, mh := range []int{2, 3, 5, 9, 16, 81, 256} {
			s := Spec{Points: mh, Loop: mode}
			got, err := s.TraceA3Computed()
			if err != nil {
				t.Fatal(err)
			}
			if want := s.TraceA3(); got != want {
				t.Errorf("%v: computed trace(A³) = %d, closed form %d", s, got, want)
			}
		}
	}
}

// Property: closed forms hold for arbitrary m̂ in [2, 200).
func TestQuickClosedForms(t *testing.T) {
	f := func(raw uint16, modeRaw uint8) bool {
		mh := 2 + int(raw)%198
		mode := LoopMode(int(modeRaw) % 3)
		s := Spec{Points: mh, Loop: mode}
		got, err := s.TraceA3Computed()
		if err != nil || got != s.TraceA3() {
			return false
		}
		var sumDeg, sumCount int64
		for d, n := range s.DegreeDistribution() {
			sumDeg += d * n
			sumCount += n
		}
		// Σ d·n(d) = nnz and Σ n(d) = vertices (every star vertex has
		// degree ≥ 1).
		return sumDeg == s.NNZ() && sumCount == int64(s.Vertices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStarIsPowerLawAlphaOne(t *testing.T) {
	// Section III: a plain star graph is a power-law graph with α = 1:
	// n(1) = m̂ and n(m̂) = 1 are both on n(d) = m̂/d.
	s := Spec{Points: 7, Loop: LoopNone}
	dd := s.DegreeDistribution()
	if dd[1] != 7 || dd[7] != 1 {
		t.Fatalf("degree distribution %v", dd)
	}
}

func TestSpecsHelper(t *testing.T) {
	specs := Specs([]int{3, 4, 5}, LoopHub)
	if len(specs) != 3 {
		t.Fatalf("Specs built %d entries", len(specs))
	}
	for i, want := range []int{3, 4, 5} {
		if specs[i].Points != want || specs[i].Loop != LoopHub {
			t.Errorf("spec %d = %v", i, specs[i])
		}
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{Points: 5, Loop: LoopHub}).String(); got != "star(m̂=5,loop=hub)" {
		t.Errorf("String() = %q", got)
	}
}

// The Kronecker product of two plain stars must reproduce the Figure 1
// degree distribution n(d) = 15/d for m̂A = 5, m̂B = 3:
// n(1)=15, n(3)=5, n(5)=3, n(15)=1.
func TestFig1KroneckerOfStars(t *testing.T) {
	a := Spec{Points: 5, Loop: LoopNone}.Adjacency()
	b := Spec{Points: 3, Loop: LoopNone}.Adjacency()
	c, err := sparse.Kron(a, b, sr)
	if err != nil {
		t.Fatal(err)
	}
	h := sparse.DegreeHistogram(c, sr)
	want := map[int]int{1: 15, 3: 5, 5: 3, 15: 1}
	if len(h) != len(want) {
		t.Fatalf("histogram %v, want %v", h, want)
	}
	for d, n := range want {
		if h[d] != n {
			t.Errorf("n(%d) = %d, want %d", d, h[d], n)
		}
	}
	// All points lie on n(d) = 15/d.
	for d, n := range h {
		if n != 15/d {
			t.Errorf("point (%d, %d) off the 15/d power law", d, n)
		}
	}
}

// Bipartite structure: the Kronecker product of two plain stars has zero
// triangles (trace(A³) = 0).
func TestPlainStarProductTriangleFree(t *testing.T) {
	a := Spec{Points: 5, Loop: LoopNone}.Adjacency()
	b := Spec{Points: 3, Loop: LoopNone}.Adjacency()
	c, err := sparse.Kron(a, b, sr)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := sparse.MatPow(c.ToCSR(sr), 3, sr)
	if err != nil {
		t.Fatal(err)
	}
	if got := sparse.TraceCSR(c3, sr); got != 0 {
		t.Errorf("trace(C³) = %d, want 0", got)
	}
}
