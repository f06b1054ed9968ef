package sparse

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// buildCSR assembles a CSR from triples through the single-worker builder —
// the reference construction for merge tests.
func buildCSR(t *testing.T, rows, cols int, tr []Triple[int64]) *CSR[int64] {
	t.Helper()
	b, err := NewCSRBuilder[int64](rows, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr {
		b.Count(0, e.Row)
	}
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr {
		b.Place(0, e.Row, e.Col, e.Val)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// TestMergeCSRMatchesUnion checks that merging K random column-disjoint
// fragments equals building one CSR from the union of their triples, for
// several fragment and worker counts.
func TestMergeCSRMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, K := range []int{1, 2, 3, 5} {
		for _, np := range []int{1, 2, 4} {
			const rows, cols = 17, 40
			// Columns are banded by fragment, mimicking shard fragments:
			// fragment k owns columns [k*cols/K, (k+1)*cols/K), so per-row
			// concatenation in fragment order is already sorted.
			frags := make([]*CSR[int64], K)
			var union []Triple[int64]
			for k := 0; k < K; k++ {
				lo, hi := k*cols/K, (k+1)*cols/K
				var tr []Triple[int64]
				for r := 0; r < rows; r++ {
					for c := lo; c < hi; c++ {
						if rng.Intn(3) == 0 {
							tr = append(tr, Triple[int64]{Row: r, Col: c, Val: int64(r*cols + c)})
						}
					}
				}
				frags[k] = buildCSR(t, rows, cols, tr)
				union = append(union, tr...)
			}
			want := buildCSR(t, rows, cols, union)
			got, err := MergeCSR(context.Background(), np, frags)
			if err != nil {
				t.Fatalf("K=%d np=%d: MergeCSR: %v", K, np, err)
			}
			if !reflect.DeepEqual(got.RowPtr, want.RowPtr) ||
				!reflect.DeepEqual(got.ColIdx, want.ColIdx) ||
				!reflect.DeepEqual(got.Val, want.Val) {
				t.Errorf("K=%d np=%d: merged CSR differs from union build", K, np)
			}
		}
	}
}

// TestMergeCSRSortsInterleavedRows checks the defensive sort: fragments whose
// column ranges interleave still merge to canonical (column-sorted) rows.
func TestMergeCSRSortsInterleavedRows(t *testing.T) {
	a := buildCSR(t, 3, 10, []Triple[int64]{
		{Row: 0, Col: 4, Val: 40}, {Row: 0, Col: 8, Val: 80}, {Row: 2, Col: 5, Val: 50},
	})
	b := buildCSR(t, 3, 10, []Triple[int64]{
		{Row: 0, Col: 1, Val: 10}, {Row: 0, Col: 6, Val: 60}, {Row: 2, Col: 2, Val: 20},
	})
	got, err := MergeCSR(context.Background(), 2, []*CSR[int64]{a, b})
	if err != nil {
		t.Fatalf("MergeCSR: %v", err)
	}
	want := buildCSR(t, 3, 10, []Triple[int64]{
		{Row: 0, Col: 1, Val: 10}, {Row: 0, Col: 4, Val: 40}, {Row: 0, Col: 6, Val: 60},
		{Row: 0, Col: 8, Val: 80}, {Row: 2, Col: 2, Val: 20}, {Row: 2, Col: 5, Val: 50},
	})
	if !reflect.DeepEqual(got.RowPtr, want.RowPtr) ||
		!reflect.DeepEqual(got.ColIdx, want.ColIdx) ||
		!reflect.DeepEqual(got.Val, want.Val) {
		t.Errorf("interleaved merge not canonical:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestMergeCSRErrors pins the loud-failure paths: no fragments, a nil
// fragment, and mismatched shapes.
func TestMergeCSRErrors(t *testing.T) {
	m := buildCSR(t, 2, 2, nil)
	if _, err := MergeCSR[int64](context.Background(), 1, nil); err == nil {
		t.Error("empty fragment list accepted")
	}
	if _, err := MergeCSR(context.Background(), 1, []*CSR[int64]{m, nil}); err == nil {
		t.Error("nil fragment accepted")
	}
	other := buildCSR(t, 3, 2, nil)
	if _, err := MergeCSR(context.Background(), 1, []*CSR[int64]{m, other}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestMergeCSRCancelled checks that a pre-cancelled context aborts the merge.
func TestMergeCSRCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := buildCSR(t, 4, 4, []Triple[int64]{{Row: 1, Col: 2, Val: 1}})
	b := buildCSR(t, 4, 4, []Triple[int64]{{Row: 2, Col: 1, Val: 1}})
	if _, err := MergeCSR(ctx, 2, []*CSR[int64]{a, b}); err == nil {
		t.Error("cancelled merge succeeded")
	}
}

// TestMergeCSRSingleFragmentIdentity pins the documented no-copy fast path.
func TestMergeCSRSingleFragmentIdentity(t *testing.T) {
	m := buildCSR(t, 4, 4, []Triple[int64]{{Row: 0, Col: 3, Val: 3}})
	got, err := MergeCSR(context.Background(), 1, []*CSR[int64]{m})
	if err != nil {
		t.Fatalf("MergeCSR: %v", err)
	}
	if got != m {
		t.Error("single-fragment merge did not return the fragment itself")
	}
}
