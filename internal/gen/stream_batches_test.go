package gen

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sparse"
	"repro/internal/star"
)

// collectPerEdge gathers Stream's edge multiset.
func collectPerEdge(t *testing.T, g *Generator, np int) map[Edge]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[Edge]int)
	err := g.Stream(context.Background(), np, func(w int, e Edge) error {
		mu.Lock()
		seen[e]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

// collectBatches gathers StreamBatches' edge multiset at the given batch
// size.
func collectBatches(t *testing.T, g *Generator, np, batchSize int) map[Edge]int {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[Edge]int)
	err := g.StreamBatches(context.Background(), np, batchSize, func(p int, batch []Edge) error {
		mu.Lock()
		for _, e := range batch {
			seen[e]++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen
}

// TestStreamBatchesParity proves the batch-native path emits exactly the
// same edge multiset as the per-edge Stream across loop modes (exercising
// the hoisted self-loop skip), splits, worker counts, and batch sizes that
// land on and off batch boundaries.
func TestStreamBatchesParity(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
		nb   int
	}{
		{[]int{3, 4, 5}, star.LoopNone, 1},
		{[]int{3, 4, 5}, star.LoopHub, 2},
		{[]int{3, 4, 5}, star.LoopLeaf, 2},
		{[]int{2, 2, 2, 2}, star.LoopLeaf, 2},
		{[]int{5, 3}, star.LoopHub, 1},
	}
	for _, tc := range cases {
		_, g := mustGen(t, tc.pts, tc.loop, tc.nb)
		for _, np := range []int{1, 3} {
			want := collectPerEdge(t, g, np)
			for _, bs := range []int{1, 7, 0 /* default */} {
				got := collectBatches(t, g, np, bs)
				if len(got) != len(want) {
					t.Fatalf("%v np=%d bs=%d: %d distinct edges, per-edge path has %d",
						tc.pts, np, bs, len(got), len(want))
				}
				for e, n := range want {
					if got[e] != n {
						t.Fatalf("%v np=%d bs=%d: edge %v count %d, per-edge path has %d",
							tc.pts, np, bs, e, got[e], n)
					}
				}
			}
			if int64(len(want)) != g.NumEdges() {
				t.Fatalf("%v: emitted %d distinct edges, design says %d", tc.pts, len(want), g.NumEdges())
			}
		}
	}
}

// TestStreamBatchesBatchShape checks batch granularity: every worker's
// batches are full except possibly its last, and per-worker totals cover
// the whole graph.
func TestStreamBatchesBatchShape(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopHub, 2)
	const bs = 64
	np := 3
	var mu sync.Mutex
	short := make([]int, np) // undersized batches seen per worker
	total := int64(0)
	err := g.StreamBatches(context.Background(), np, bs, func(p int, batch []Edge) error {
		mu.Lock()
		defer mu.Unlock()
		if len(batch) == 0 || len(batch) > bs {
			t.Errorf("worker %d batch of %d edges, want 1..%d", p, len(batch), bs)
		}
		if len(batch) < bs {
			short[p]++
		} else if short[p] > 0 {
			t.Errorf("worker %d emitted a full batch after a short one", p)
		}
		total += int64(len(batch))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range short {
		if n > 1 {
			t.Errorf("worker %d emitted %d short batches, want at most the final one", p, n)
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("streamed %d edges in batches, design says %d", total, g.NumEdges())
	}
}

// TestStreamBatchesCancellation cancels from inside a batch callback and
// checks generation stops early with context.Canceled; run under -race in
// CI, it also proves the reusable buffers stay worker-local.
func TestStreamBatchesCancellation(t *testing.T) {
	_, g := mustGen(t, []int{5, 9, 16}, star.LoopNone, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var emitted int64
	var mu sync.Mutex
	err := g.StreamBatches(ctx, 4, 32, func(p int, batch []Edge) error {
		mu.Lock()
		emitted += int64(len(batch))
		mu.Unlock()
		cancel() // first batch from any worker cancels the run
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if emitted >= g.NumEdges() {
		t.Fatalf("emitted all %d edges despite cancellation", emitted)
	}
}

// TestStreamBatchesEmitErrorStopsPeers propagates a consumer error and
// cancels the remaining workers, mirroring the per-edge contract.
func TestStreamBatchesEmitErrorStopsPeers(t *testing.T) {
	_, g := mustGen(t, []int{5, 9, 16}, star.LoopLeaf, 2)
	sentinel := errors.New("sink full")
	err := g.StreamBatches(context.Background(), 4, 16, func(p int, batch []Edge) error {
		if p == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

// TestMaterializeColumnOverflow is the regression test for the unchecked
// localCols product: a worker whose column band times nnz-per-column of C
// overflows int must error instead of silently wrapping into a garbage
// column count. The oversized B and C exist only as dimensions — both store
// entries, not dense rows, so no memory is committed.
func TestMaterializeColumnOverflow(t *testing.T) {
	huge := math.MaxInt/2 + 1 // (huge+1)*huge overflows int on 32- and 64-bit
	b, err := sparse.NewCOO(2, huge+1, []sparse.Triple[int64]{
		{Row: 0, Col: 0, Val: 1},
		{Row: 1, Col: huge, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &Generator{
		b:       b,
		cEdges:  []Edge{{Row: 0, Col: 0, Val: 1}},
		mC:      int64(huge),
		nC:      int64(huge),
		loopRow: -1,
		mA:      int64(b.NumRows) * int64(huge),
		nnzA:    int64(b.NNZ()),
	}
	_, err = g.Materialize(1)
	if err == nil {
		t.Fatal("Materialize accepted a column band whose local column count overflows int")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want an overflow error", err)
	}
	// The guarded product matches sparse.MulDim's own verdict.
	if _, err := sparse.MulDim(huge+1, huge); err == nil {
		t.Fatal("test setup: product does not overflow")
	}
}
