package gen

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// The band-order guarantee the streaming measurement engine builds its CSR
// on: per worker, each global row's columns arrive strictly increasing, and
// across workers, worker p's entries for a row all precede worker p+1's in
// column order. Pinned here so a change to B's or C's realization order
// fails fast instead of silently degrading the validator to per-row sorts.
func TestStreamBatchesBandOrderGuarantee(t *testing.T) {
	for _, tc := range []struct {
		pts  []int
		loop star.LoopMode
		nb   int
		np   int
	}{
		{[]int{3, 4, 5}, star.LoopHub, 2, 1},
		{[]int{3, 4, 5}, star.LoopHub, 2, 3},
		{[]int{3, 4, 5, 9}, star.LoopNone, 2, 4},
		{[]int{5, 3, 4}, star.LoopLeaf, 1, 5},
	} {
		d, err := core.FromPoints(tc.pts, tc.loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(d, tc.nb)
		if err != nil {
			t.Fatal(err)
		}
		// lastCol[w][row] tracks the last column worker w emitted per row.
		lastCol := make([]map[int64]int64, tc.np)
		for w := range lastCol {
			lastCol[w] = make(map[int64]int64)
		}
		var mu sync.Mutex
		err = g.StreamTo(context.Background(), tc.np, 0, pipeline.Func(func(w int, batch []Edge) error {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range batch {
				if prev, ok := lastCol[w][e.Row]; ok && e.Col <= prev {
					t.Errorf("%v np=%d: worker %d row %d emitted col %d after %d",
						d, tc.np, w, e.Row, e.Col, prev)
				}
				lastCol[w][e.Row] = e.Col
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Cross-worker: worker p's max column per row < worker p+1's min —
		// equivalently p's last emitted (its max) < p+1's first. Since each
		// worker's per-row sequence is increasing, compare maxes pairwise
		// against the next worker's tracked entries via a full check.
		firstCol := make([]map[int64]int64, tc.np)
		for w := range firstCol {
			firstCol[w] = make(map[int64]int64)
		}
		err = g.StreamTo(context.Background(), tc.np, 0, pipeline.Func(func(w int, batch []Edge) error {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range batch {
				if _, ok := firstCol[w][e.Row]; !ok {
					firstCol[w][e.Row] = e.Col
				}
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w+1 < tc.np; w++ {
			for row, last := range lastCol[w] {
				for w2 := w + 1; w2 < tc.np; w2++ {
					if first, ok := firstCol[w2][row]; ok && first <= last {
						t.Errorf("%v np=%d: row %d: worker %d starts at col %d, worker %d ended at %d",
							d, tc.np, row, w2, first, w, last)
					}
				}
			}
		}
	}
}
