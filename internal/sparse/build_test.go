package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/semiring"
)

// randomBands samples a duplicate-free random matrix and deals its triples
// into w bands round-robin, so every band holds edges from arbitrary rows.
func randomBands(t *testing.T, rows, cols, nnz, w int, seed int64) (*COO[int64], [][]Triple[int64]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var tr []Triple[int64]
	for len(tr) < nnz {
		r, c := rng.Intn(rows), rng.Intn(cols)
		if seen[[2]int{r, c}] {
			continue
		}
		seen[[2]int{r, c}] = true
		tr = append(tr, Triple[int64]{Row: r, Col: c, Val: int64(1 + rng.Intn(5))})
	}
	bands := make([][]Triple[int64], w)
	for i, t := range tr {
		bands[i%w] = append(bands[i%w], t)
	}
	return MustCOO(rows, cols, tr), bands
}

// The streaming two-pass protocol: concurrent Count, Finalize, concurrent
// Place, Build — exercised with workers that interleave rows arbitrarily.
func TestCSRBuilderTwoPassConcurrent(t *testing.T) {
	sr := semiring.PlusTimesInt64()
	const workers = 4
	coo, bands := randomBands(t, 29, 23, 240, workers, 99)
	b, err := NewCSRBuilder[int64](29, 23, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel.Run(workers, func(w int) error {
		for _, tr := range bands[w] {
			b.Count(w, tr.Row)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Degrees are exact before any entry is placed.
	rp := b.rowPtr
	degs := make([]int, 29)
	for _, tr := range coo.Tr {
		degs[tr.Row]++
	}
	for r, want := range degs {
		if got := rp[r+1] - rp[r]; got != want {
			t.Fatalf("row %d degree %d from RowPtr, want %d", r, got, want)
		}
	}
	if b.NNZ() != coo.NNZ() {
		t.Fatalf("NNZ %d, want %d", b.NNZ(), coo.NNZ())
	}
	if err := parallel.Run(workers, func(w int) error {
		for _, tr := range bands[w] {
			b.Place(w, tr.Row, tr.Col, tr.Val)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	csr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !Equal(csr.ToCOO(), coo.ToCSR(sr).ToCOO(), sr) {
		t.Fatal("builder output differs from reference conversion")
	}
}

func TestCSRBuilderMisuse(t *testing.T) {
	if _, err := NewCSRBuilder[int64](-1, 2, 1); err == nil {
		t.Fatal("negative rows accepted")
	}
	if _, err := NewCSRBuilder[int64](2, 2, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
	b, err := NewCSRBuilder[int64](3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build before Finalize accepted")
	}
	b.Count(0, 1)
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finalize(); err == nil {
		t.Fatal("double Finalize accepted")
	}
	// Counted one entry in row 1 but placed none: Build must refuse.
	if _, err := b.Build(); err == nil {
		t.Fatal("unplaced entries accepted")
	}
}

func TestCSRBuilderRejectsBadColumn(t *testing.T) {
	b, err := NewCSRBuilder[int64](2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Count(0, 0)
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	b.Place(0, 0, 7, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-bounds column accepted")
	}
}

func TestDegreeHistogramCSR(t *testing.T) {
	coo, _ := randomBands(t, 31, 31, 200, 1, 5)
	sr := semiring.PlusTimesInt64()
	csr := coo.ToCSR(sr)
	for _, np := range []int{1, 3, 8} {
		got, err := DegreeHistogramCSR(csr.RowPtr, np)
		if err != nil {
			t.Fatal(err)
		}
		want := DegreeHistogram(coo, sr)
		if len(got) != len(want) {
			t.Fatalf("np=%d: %d degree classes, want %d", np, len(got), len(want))
		}
		for d, c := range want {
			if got[int64(d)] != int64(c) {
				t.Fatalf("np=%d: degree %d count %d, want %d", np, d, got[int64(d)], c)
			}
		}
	}
	if _, err := DegreeHistogramCSR(nil, 2); err == nil {
		t.Fatal("nil row pointers accepted")
	}
}
