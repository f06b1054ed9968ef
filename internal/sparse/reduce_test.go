package sparse

import (
	"reflect"
	"testing"

	"repro/internal/semiring"
)

// reduceFixture is a 3×4 matrix with a duplicate entry and a diagonal:
//
//	[ 1 2 .  . ]          (0,1) stored twice: 2 = 1+1
//	[ . 3 .  5 ]
//	[ . . 4  . ]
func reduceFixture() *COO[int64] {
	return MustCOO(3, 4, []Triple[int64]{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 1},
		{Row: 0, Col: 1, Val: 1}, // duplicate, accumulates under ⊕
		{Row: 1, Col: 1, Val: 3},
		{Row: 1, Col: 3, Val: 5},
		{Row: 2, Col: 2, Val: 4},
	})
}

func TestReduceAll(t *testing.T) {
	if got := ReduceAll(reduceFixture(), semiring.PlusTimesInt64()); got != 15 {
		t.Fatalf("ReduceAll = %d, want 15", got)
	}
}

func TestReduceEmptyMatrix(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	empty := MustCOO[int64](2, 3, nil)
	if got := ReduceAll(empty, sr); got != 0 {
		t.Fatalf("ReduceAll(empty) = %d", got)
	}
	if got := Trace(empty, sr); got != 0 {
		t.Fatalf("Trace(empty) = %d", got)
	}
}

func TestReduceUnderMinPlus(t *testing.T) {
	// Reductions must honor the semiring's ⊕, not assume +: under min-plus,
	// the reduction is the minimum.
	sr := semiring.MinPlus()
	m := MustCOO(2, 2, []Triple[float64]{
		{Row: 0, Col: 0, Val: 7},
		{Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 1, Val: 5},
	})
	if got := ReduceAll(m, sr); got != 2 {
		t.Fatalf("min-plus ReduceAll = %v, want 2", got)
	}
}

func TestTrace(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	if got := Trace(reduceFixture(), sr); got != 8 { // 1 + 3 + 4
		t.Fatalf("Trace = %d, want 8", got)
	}
	// Trace must agree between COO and CSR forms.
	csr := reduceFixture().ToCSR(sr)
	if got := TraceCSR(csr, sr); got != 8 {
		t.Fatalf("TraceCSR = %d, want 8", got)
	}
}

func TestTraceCSRRectangular(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	// Wide matrix: the diagonal stops at min(rows, cols).
	wide := MustCOO(2, 5, []Triple[int64]{
		{Row: 0, Col: 0, Val: 2},
		{Row: 1, Col: 1, Val: 3},
		{Row: 1, Col: 4, Val: 9},
	})
	if got := TraceCSR(wide.ToCSR(sr), sr); got != 5 {
		t.Fatalf("TraceCSR(wide) = %d, want 5", got)
	}
	tall := wide.Transpose()
	if got := TraceCSR(tall.ToCSR(sr), sr); got != 5 {
		t.Fatalf("TraceCSR(tall) = %d, want 5", got)
	}
}

func TestRowNNZCounts(t *testing.T) {
	// Structural degree: the duplicate (0,1) counts once after Dedupe, and a
	// self-loop contributes 1.
	got := RowNNZCounts(reduceFixture(), semiring.PlusTimesInt64())
	want := []int{2, 2, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RowNNZCounts = %v, want %v", got, want)
	}
}

func TestRowNNZCountsDropsExplicitZeros(t *testing.T) {
	// Duplicates cancelling to ⊕-zero vanish from the canonical form and so
	// from the structural degree.
	m := MustCOO(1, 2, []Triple[int64]{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 0, Val: -1},
		{Row: 0, Col: 1, Val: 2},
	})
	got := RowNNZCounts(m, semiring.PlusTimesInt64())
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("RowNNZCounts = %v, want [1]", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	got := DegreeHistogram(reduceFixture(), semiring.PlusTimesInt64())
	want := map[int]int{2: 2, 1: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeHistogram = %v, want %v", got, want)
	}
}

func TestDegreeHistogramSkipsEmptyRows(t *testing.T) {
	m := MustCOO(4, 4, []Triple[int64]{
		{Row: 0, Col: 1, Val: 1},
		{Row: 3, Col: 0, Val: 1},
	})
	got := DegreeHistogram(m, semiring.PlusTimesInt64())
	want := map[int]int{1: 2} // rows 1 and 2 (degree 0) are not n(d) support
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeHistogram = %v, want %v", got, want)
	}
}

// TestDegreeHistogramMatchesStarClosedForm cross-checks the measured
// histogram of a realized star against the closed form the designer uses:
// a star with m̂ points has n(1) = m̂ and n(m̂) = 1.
func TestDegreeHistogramMatchesStarClosedForm(t *testing.T) {
	const mh = 6
	tr := make([]Triple[int64], 0, 2*mh)
	for leaf := 1; leaf <= mh; leaf++ {
		tr = append(tr,
			Triple[int64]{Row: 0, Col: leaf, Val: 1},
			Triple[int64]{Row: leaf, Col: 0, Val: 1})
	}
	star := MustCOO(mh+1, mh+1, tr)
	got := DegreeHistogram(star, semiring.PlusTimesInt64())
	want := map[int]int{1: mh, mh: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("star degree histogram = %v, want %v", got, want)
	}
}
