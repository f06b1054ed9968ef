package triangle

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/star"
)

// randomSymmetric builds a random simple symmetric graph on n vertices.
func randomSymmetric(n int, density float64, seed int64) *sparse.COO[int64] {
	rng := rand.New(rand.NewSource(seed))
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				tr = append(tr,
					sparse.Triple[int64]{Row: i, Col: j, Val: 1},
					sparse.Triple[int64]{Row: j, Col: i, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, tr)
}

// circulant builds the graph on n vertices joining i to i±s for every
// offset s: a cycle for offsets {1}, and a 2·len(offsets)-regular graph in
// general, so every vertex has the same degree and only the id tie-break
// orients its edges.
func circulant(n int, offsets ...int) *sparse.COO[int64] {
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for _, s := range offsets {
			j := (i + s) % n
			tr = append(tr,
				sparse.Triple[int64]{Row: i, Col: j, Val: 1},
				sparse.Triple[int64]{Row: j, Col: i, Val: 1})
		}
	}
	return sparse.MustCOO(n, n, tr)
}

func TestCSRCountersMatchCOOCounters(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*sparse.COO[int64]{
		"K6":             complete(6),
		"random40":       randomSymmetric(40, 0.15, 1),
		"random25":       randomSymmetric(25, 0.4, 2),
		"cycle3":         circulant(3, 1),
		"cycle9":         circulant(9, 1),
		"4-regular11":    circulant(11, 1, 2),
		"6-regular16":    circulant(16, 1, 3, 4),
		"K{4,4}-regular": circulant(8, 1, 3),
	}
	// Star products, the hub-heavy shape the orientation exists for, in
	// every loop mode.
	for name, loop := range map[string]star.LoopMode{"none": star.LoopNone, "hub": star.LoopHub, "leaf": star.LoopLeaf} {
		d, err := core.FromPoints([]int{5, 3, 4}, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		graphs["star-"+name] = g
	}
	for name, a := range graphs {
		want, err := CountBoth(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		csr := a.ToCSR(sr)
		for _, np := range []int{1, 2, 3, 7} {
			got, err := CountBothCSR(ctx, csr, np)
			if err != nil {
				t.Fatalf("%s np=%d: %v", name, np, err)
			}
			if got != want {
				t.Errorf("%s np=%d: CSR count %d, COO count %d", name, np, got, want)
			}
			la, err := CountLinearAlgebraCSR(ctx, csr, np)
			if err != nil || la != want {
				t.Errorf("%s np=%d: linear-algebra count %d, %v; want %d", name, np, la, err, want)
			}
			ni, err := CountNodeIteratorCSR(ctx, csr, np)
			if err != nil || ni != want {
				t.Errorf("%s np=%d: node-iterator count %d, %v; want %d", name, np, ni, err, want)
			}
			// The value-free pattern validation builds counts the same.
			pattern := &sparse.CSR[struct{}]{NumRows: csr.NumRows, NumCols: csr.NumCols,
				RowPtr: csr.RowPtr, ColIdx: csr.ColIdx, Val: make([]struct{}, csr.NNZ())}
			if got, err := CountBothCSR(ctx, pattern, np); err != nil || got != want {
				t.Errorf("%s np=%d: pattern CSR count %d, %v; want %d", name, np, got, err, want)
			}
		}
		u, err := Orient(ctx, csr, 3, nil)
		if err != nil {
			t.Fatalf("%s: orient: %v", name, err)
		}
		if 2*u.NNZ() != csr.NNZ() {
			t.Errorf("%s: U holds %d entries, want half of %d", name, u.NNZ(), csr.NNZ())
		}
		for i := 0; i < u.n; i++ {
			if r := len(u.row(i)); float64(r) > math.Sqrt(float64(csr.NNZ())) {
				t.Errorf("%s: U row %d holds %d entries, over √nnz(A) = %.1f", name, i, r, math.Sqrt(float64(csr.NNZ())))
			}
		}
	}
}

func TestCSRCountersEmptyGraph(t *testing.T) {
	csr := sparse.MustCOO[int64](8, 8, nil).ToCSR(sr)
	got, err := CountBothCSR(context.Background(), csr, 4)
	if err != nil || got != 0 {
		t.Fatalf("empty graph: %d, %v", got, err)
	}
}

// patternCSR builds a CSR directly from rows of column indices, with no
// canonicalization, so tests can hand the counters malformed patterns.
func patternCSR(rows [][]int) *sparse.CSR[struct{}] {
	m := &sparse.CSR[struct{}]{NumRows: len(rows), NumCols: len(rows), RowPtr: []int{0}}
	for _, r := range rows {
		m.ColIdx = append(m.ColIdx, r...)
		m.RowPtr = append(m.RowPtr, len(m.ColIdx))
	}
	m.Val = make([]struct{}, len(m.ColIdx))
	return m
}

func TestCSRCountersRejectBadInput(t *testing.T) {
	ctx := context.Background()
	rect := sparse.MustCOO[int64](3, 4, nil).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(ctx, rect, 2); err == nil {
		t.Error("non-square accepted by linear-algebra counter")
	}
	if _, err := CountNodeIteratorCSR(ctx, rect, 2); err == nil {
		t.Error("non-square accepted by node-iterator counter")
	}
	sq := complete(4).ToCSR(sr)
	if _, err := CountLinearAlgebraCSR(ctx, sq, 0); err == nil {
		t.Error("zero workers accepted")
	}

	// K4 with one defect each, and one subtler pattern; the well-formed K4
	// counts 4.
	if got, err := CountBothCSR(ctx, patternCSR([][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}), 2); err != nil || got != 4 {
		t.Fatalf("well-formed K4: %d, %v", got, err)
	}
	bad := map[string]struct {
		rows [][]int
		want string // in the error: each defect is caught by its own check
	}{
		"diagonal entry":   {[][]int{{0, 1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}, "diagonal"},
		"dropped entry":    {[][]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1}}, "not symmetric"},
		"duplicate column": {[][]int{{1, 2, 2, 3}, {0, 2, 3}, {0, 1, 1, 3}, {0, 1, 2}}, "strictly increasing"},
		"unsorted row":     {[][]int{{1, 3, 2}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}, "strictly increasing"},
		// A matching whose entry (3,2) moved to (3,0): every degree and the
		// oriented count still match a symmetric graph, so only the mirror
		// search for (2,3) can tell.
		"missing mirror": {[][]int{{1}, {0}, {3}, {0}, {5}, {4}}, "no mirror"},
	}
	for name, tc := range bad {
		a := patternCSR(tc.rows)
		for _, np := range []int{1, 3} {
			for counter, count := range map[string]func(context.Context, *sparse.CSR[struct{}], int) (int64, error){
				"CountBothCSR":          CountBothCSR[struct{}],
				"CountLinearAlgebraCSR": CountLinearAlgebraCSR[struct{}],
				"CountNodeIteratorCSR":  CountNodeIteratorCSR[struct{}],
			} {
				got, err := count(ctx, a, np)
				if err == nil {
					t.Errorf("%s np=%d: %s returned %d, want an error", name, np, counter, got)
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s np=%d: %s error %q, want it to mention %q", name, np, counter, err, tc.want)
				}
			}
		}
	}
}

func TestCSRCountersCancelled(t *testing.T) {
	csr := randomSymmetric(60, 0.3, 3).ToCSR(sr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountLinearAlgebraCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("linear-algebra err = %v, want context.Canceled", err)
	}
	if _, err := CountNodeIteratorCSR(ctx, csr, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("node-iterator err = %v, want context.Canceled", err)
	}
}

// The oriented entry bands must cover U in order, and the kernel summed
// over them must reproduce the exact count for any band and worker count.
func TestOrientedBandsCoverAndOrder(t *testing.T) {
	ctx := context.Background()
	a := randomSymmetric(40, 0.25, 11)
	want, err := CountBoth(a)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Orient(ctx, a.ToCSR(sr), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range []int{1, 2, 5, 16, 1000} {
		bands := u.bands(nb)
		if len(bands) < 1 || len(bands) > nb {
			t.Fatalf("nb=%d: %d bands", nb, len(bands))
		}
		pos := 0
		for _, b := range bands {
			if b[0] != pos || b[1] <= b[0] {
				t.Fatalf("nb=%d: band %v does not continue from %d", nb, b, pos)
			}
			pos = b[1]
		}
		if pos != u.NNZ() {
			t.Fatalf("nb=%d: bands end at %d, want %d", nb, pos, u.NNZ())
		}
		for _, np := range []int{1, 3} {
			got, err := u.overBands(ctx, bands, np, nil, u.intersector)
			if err != nil || got != want {
				t.Fatalf("nb=%d np=%d: summed bands %d, %v; want %d", nb, np, got, err, want)
			}
		}
	}
	empty, err := Orient(ctx, sparse.MustCOO[int64](4, 4, nil).ToCSR(sr), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bands := empty.bands(3); len(bands) != 1 || bands[0] != [2]int{0, 0} {
		t.Fatalf("empty pattern bands: %v", bands)
	}
}

// FuzzCountBothCSR decodes its input into a small simple symmetric graph —
// the first byte picks the vertex count, each following byte pair an edge —
// and checks the oriented counters against the COO oracle. It then drops
// one stored entry, leaving that edge's mirror unmatched, which must make
// the counters fail rather than count.
func FuzzCountBothCSR(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 2, 3})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 3, 4})
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		seen := make(map[[2]int]bool)
		var tr []sparse.Triple[int64]
		for k := 1; k+1 < len(data); k += 2 {
			i, j := int(data[k])%n, int(data[k+1])%n
			if i == j || seen[[2]int{i, j}] {
				continue
			}
			seen[[2]int{i, j}], seen[[2]int{j, i}] = true, true
			tr = append(tr, sparse.Triple[int64]{Row: i, Col: j, Val: 1},
				sparse.Triple[int64]{Row: j, Col: i, Val: 1})
		}
		a := sparse.MustCOO(n, n, tr)
		want, err := CountBoth(a)
		if err != nil {
			t.Fatalf("COO oracle: %v", err)
		}
		csr := a.ToCSR(sr)
		np := 1 + int(data[len(data)-1])%4
		got, err := CountBothCSR(context.Background(), csr, np)
		if err != nil || got != want {
			t.Fatalf("n=%d np=%d: CSR count %d, %v; COO count %d", n, np, got, err, want)
		}
		if csr.NNZ() == 0 {
			return
		}
		// Drop one entry, picked by the input, keeping the CSR well formed.
		k := int(data[len(data)/2]) % csr.NNZ()
		row := rowOfEntry(csr.RowPtr, k)
		broken := &sparse.CSR[int64]{NumRows: n, NumCols: n,
			RowPtr: append([]int(nil), csr.RowPtr...),
			ColIdx: append(append([]int(nil), csr.ColIdx[:k]...), csr.ColIdx[k+1:]...),
			Val:    append(append([]int64(nil), csr.Val[:k]...), csr.Val[k+1:]...)}
		for r := row + 1; r <= n; r++ {
			broken.RowPtr[r]--
		}
		if got, err := CountBothCSR(context.Background(), broken, np); err == nil {
			t.Fatalf("n=%d: dropping entry %d (row %d) still counted %d", n, k, row, got)
		}
	})
}

// rowOfEntry returns the row holding stored entry k.
func rowOfEntry(rowPtr []int, k int) int {
	r := 0
	for rowPtr[r+1] <= k {
		r++
	}
	return r
}
