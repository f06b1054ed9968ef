package gen

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

var sr = semiring.PlusTimesInt64()

// streamEach streams the graph through a Func sink and calls emit once per
// edge, stopping at the first error.
func streamEach(ctx context.Context, g *Generator, np int, emit func(w int, e Edge) error) error {
	return g.StreamTo(ctx, np, 0, pipeline.Func(func(p int, batch []Edge) error {
		for _, e := range batch {
			if err := emit(p, e); err != nil {
				return err
			}
		}
		return nil
	}))
}

func mustGen(t *testing.T, pts []int, loop star.LoopMode, nb int) (*core.Design, *Generator) {
	t.Helper()
	d, err := core.FromPoints(pts, loop)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, nb)
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

// The central correctness property: for every loop mode and several worker
// counts, the union of all workers' streamed edges equals the serially
// realized design (self-loop already removed).
func TestStreamEqualsSerialRealization(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
		nb   int
	}{
		{[]int{3, 4, 5}, star.LoopNone, 1},
		{[]int{3, 4, 5}, star.LoopNone, 2},
		{[]int{3, 4, 5}, star.LoopHub, 2},
		{[]int{3, 4, 5}, star.LoopLeaf, 2},
		{[]int{5, 3}, star.LoopHub, 1},
		{[]int{2, 2, 2, 2}, star.LoopLeaf, 2},
	}
	for _, tc := range cases {
		d, g := mustGen(t, tc.pts, tc.loop, tc.nb)
		want, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 2, 3, 7} {
			var mu sync.Mutex
			var got []sparse.Triple[int64]
			err := streamEach(context.Background(), g, np, func(w int, e Edge) error {
				mu.Lock()
				got = append(got, sparse.Triple[int64]{Row: int(e.Row), Col: int(e.Col), Val: e.Val})
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			gm, err := sparse.NewCOO(want.NumRows, want.NumCols, got)
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(gm, want, sr) {
				t.Errorf("%v np=%d: streamed graph != serial realization", d, np)
			}
		}
	}
}

func TestEdgeCountsMatchDesign(t *testing.T) {
	for _, loop := range []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf} {
		d, g := mustGen(t, []int{3, 4, 5, 9}, loop, 2)
		if got, want := g.NumEdges(), d.NumEdges(); got != want.Int64() {
			t.Errorf("%v: generator NumEdges %d, design %s", d, got, want)
		}
		if got, want := g.NumVertices(), d.NumVertices(); got != want.Int64() {
			t.Errorf("%v: generator NumVertices %d, design %s", d, got, want)
		}
		total, _, err := g.CountEdges(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if total != g.NumEdges() {
			t.Errorf("%v: CountEdges %d, want %d", d, total, g.NumEdges())
		}
	}
}

func TestCountEdgesChecksumStable(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopHub, 2)
	_, sum1, err := g.CountEdges(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, sum4, err := g.CountEdges(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// XOR checksum is order-independent, so any worker count agrees.
	if sum1 != sum4 {
		t.Errorf("checksum differs across worker counts: %d vs %d", sum1, sum4)
	}
}

// Section V's load-balance claim: when Np divides nnz(B) every worker emits
// exactly the same number of edges (up to the one worker that skips the
// removed self-loop).
func TestEqualWorkPerProcessor(t *testing.T) {
	d, g := mustGen(t, []int{3, 4, 5}, star.LoopNone, 2)
	_ = d
	// nnz(B) for {3,4}: 6·8 = 48; 4 divides it.
	if g.BNNZ()%4 != 0 {
		t.Fatalf("test setup: nnz(B) = %d not divisible by 4", g.BNNZ())
	}
	counts := make([]int64, 4)
	var mu sync.Mutex
	err := streamEach(context.Background(), g, 4, func(w int, e Edge) error {
		mu.Lock()
		counts[w]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < 4; w++ {
		if counts[w] != counts[0] {
			t.Errorf("worker %d emitted %d edges, worker 0 emitted %d", w, counts[w], counts[0])
		}
	}
}

func TestNoSelfLoopsEmitted(t *testing.T) {
	for _, loop := range []star.LoopMode{star.LoopHub, star.LoopLeaf} {
		d, g := mustGen(t, []int{3, 4}, loop, 1)
		loopRow, _, _ := d.LoopPosition()
		found := false
		var mu sync.Mutex
		err := streamEach(context.Background(), g, 3, func(w int, e Edge) error {
			mu.Lock()
			if e.Row == e.Col && e.Row == int64(loopRow) {
				found = true
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Errorf("%v: removed self-loop was emitted", d)
		}
	}
}

func TestMaterializeAssembleRoundTrip(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
		nb   int
		np   int
	}{
		{[]int{3, 4, 5}, star.LoopNone, 2, 3},
		{[]int{3, 4, 5}, star.LoopHub, 2, 4},
		{[]int{3, 4, 5}, star.LoopLeaf, 1, 2},
		{[]int{5, 3}, star.LoopHub, 1, 6},
	}
	for _, tc := range cases {
		d, g := mustGen(t, tc.pts, tc.loop, tc.nb)
		parts, err := g.Materialize(context.Background(), tc.np)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != tc.np {
			t.Fatalf("%d parts, want %d", len(parts), tc.np)
		}
		whole, err := g.Assemble(parts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(whole, want, sr) {
			t.Errorf("%v np=%d: assembled parts != serial realization", d, tc.np)
		}
	}
}

func TestMaterializeEmptyWorkers(t *testing.T) {
	// More workers than B triples: surplus workers hold empty parts and
	// assembly still reproduces the graph.
	d, g := mustGen(t, []int{2, 2}, star.LoopNone, 1)
	np := g.BNNZ() + 3
	parts, err := g.Materialize(context.Background(), np)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := g.Assemble(parts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Realize()
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(whole, want, sr) {
		t.Error("assembly with empty workers wrong")
	}
}

// No worker's output overlaps another's: global (row, col) pairs are unique
// across the union (the generated graph has no duplicate edges).
func TestNoDuplicateEdgesAcrossWorkers(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopHub, 2)
	seen := make(map[[2]int64]int)
	var mu sync.Mutex
	err := streamEach(context.Background(), g, 5, func(w int, e Edge) error {
		mu.Lock()
		seen[[2]int64{e.Row, e.Col}]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("edge %v emitted %d times", k, n)
		}
	}
	if int64(len(seen)) != g.NumEdges() {
		t.Errorf("unique edges %d, want %d", len(seen), g.NumEdges())
	}
}

// No empty vertices: every vertex of the generated graph has at least one
// incident edge (Section V's "free of problematic vertices" claim).
func TestNoEmptyVertices(t *testing.T) {
	_, g := mustGen(t, []int{3, 4, 5}, star.LoopLeaf, 2)
	touched := make([]bool, g.NumVertices())
	var mu sync.Mutex
	err := streamEach(context.Background(), g, 2, func(w int, e Edge) error {
		mu.Lock()
		touched[e.Row] = true
		touched[e.Col] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range touched {
		if !ok {
			t.Fatalf("vertex %d has no edges", v)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4}, star.LoopNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, 0); err == nil {
		t.Error("nb=0 accepted")
	}
	if _, err := New(d, 2); err == nil {
		t.Error("nb=len(factors) accepted")
	}
}

func TestStreamPropagatesEmitError(t *testing.T) {
	_, g := mustGen(t, []int{3, 4}, star.LoopNone, 1)
	sentinel := errors.New("downstream full")
	err := streamEach(context.Background(), g, 2, func(w int, e Edge) error {
		if w == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}
