package gen

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/star"
)

func testDesign(t *testing.T, points []int, loop star.LoopMode) *core.Design {
	t.Helper()
	d, err := core.FromPoints(points, loop)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStreamEmitsDesignEdgeCount proves the stream emits exactly the
// design's edge multiset — each edge once, no duplicates across workers.
func TestStreamEmitsDesignEdgeCount(t *testing.T) {
	d := testDesign(t, []int{3, 4, 5}, star.LoopHub)
	g, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[Edge]int)
	if err := streamEach(context.Background(), g, 3, func(w int, e Edge) error {
		mu.Lock()
		seen[e]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for e, n := range seen {
		if n != 1 {
			t.Fatalf("edge %v emitted %d times", e, n)
		}
	}
	if int64(len(seen)) != g.NumEdges() {
		t.Fatalf("emitted %d distinct edges, design says %d", len(seen), g.NumEdges())
	}
}

// TestStreamCancelMidStream cancels after the first few edges and checks
// generation stops early with context.Canceled.
func TestStreamCancelMidStream(t *testing.T) {
	d := testDesign(t, []int{5, 9, 16}, star.LoopNone)
	g, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	emitted := 0
	err = streamEach(ctx, g, 4, func(w int, e Edge) error {
		mu.Lock()
		emitted++
		if emitted == 10 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(emitted) >= g.NumEdges() {
		t.Fatalf("emitted all %d edges despite cancellation", emitted)
	}
}

// TestCountEdgesCancelled proves the counting engine honors its context: a
// pre-cancelled ctx stops the enumeration instead of counting the whole
// graph. Before CountEdges took a context this was impossible — the method
// minted its own background context and ran to completion regardless.
func TestCountEdgesCancelled(t *testing.T) {
	d := testDesign(t, []int{5, 9, 16}, star.LoopNone)
	g, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.CountEdges(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total, checksum, err := g.CountEdges(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if total != g.NumEdges() {
		t.Fatalf("count %d, design says %d", total, g.NumEdges())
	}
	if checksum == 0 {
		t.Fatal("checksum is zero; fold looks dead")
	}
}

// TestStreamEmitErrorStopsPeers has one worker fail and checks the run ends
// with that error rather than generating forever.
func TestStreamEmitErrorStopsPeers(t *testing.T) {
	d := testDesign(t, []int{5, 9, 16}, star.LoopLeaf)
	g, err := New(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	err = streamEach(context.Background(), g, 4, func(w int, e Edge) error {
		if w == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

// TestStreamAssemblesExactProduct streams with cancellation plumbing in
// place (but never cancelled) and checks the result equals the serial
// Kronecker product with the loop removed — the paper's exactness claim.
func TestStreamAssemblesExactProduct(t *testing.T) {
	d := testDesign(t, []int{3, 4}, star.LoopLeaf)
	g, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	var mu sync.Mutex
	var tr []sparse.Triple[int64]
	err = streamEach(context.Background(), g, 3, func(w int, e Edge) error {
		mu.Lock()
		tr = append(tr, sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col), Val: e.Val})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sparse.NewCOO(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Realize()
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(got, want, sr) {
		t.Fatal("streamed product differs from serial realization")
	}
}
