package triangle

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

var sr = semiring.PlusTimesInt64()

func complete(n int) *sparse.COO[int64] {
	var tr []sparse.Triple[int64]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tr = append(tr, sparse.Triple[int64]{Row: i, Col: j, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, tr)
}

func TestCompleteGraphs(t *testing.T) {
	// K_n has C(n,3) triangles.
	wants := map[int]int64{3: 1, 4: 4, 5: 10, 6: 20, 7: 35}
	for n, want := range wants {
		got, err := CountBoth(complete(n))
		if err != nil {
			t.Fatalf("K%d: %v", n, err)
		}
		if got != want {
			t.Errorf("K%d triangles = %d, want %d", n, got, want)
		}
	}
}

func TestTriangleFreeGraphs(t *testing.T) {
	// Stars and cycles of even length are triangle-free.
	s := star.Spec{Points: 6, Loop: star.LoopNone}.Adjacency()
	if got, err := CountBoth(s); err != nil || got != 0 {
		t.Errorf("star triangles = %d, %v; want 0", got, err)
	}
	// C6 cycle.
	var tr []sparse.Triple[int64]
	for i := 0; i < 6; i++ {
		j := (i + 1) % 6
		tr = append(tr, sparse.Triple[int64]{Row: i, Col: j, Val: 1},
			sparse.Triple[int64]{Row: j, Col: i, Val: 1})
	}
	c6 := sparse.MustCOO(6, 6, tr)
	if got, err := CountBoth(c6); err != nil || got != 0 {
		t.Errorf("C6 triangles = %d, %v; want 0", got, err)
	}
}

func TestNonSquareRejected(t *testing.T) {
	m := sparse.MustCOO[int64](2, 3, nil)
	if _, err := CountLinearAlgebra(m); err == nil {
		t.Error("non-square accepted by linear-algebra counter")
	}
	if _, err := CountNodeIterator(m); err == nil {
		t.Error("non-square accepted by node-iterator counter")
	}
}

// The decisive check for the designer's closed forms: realize small designs
// for every loop mode and confirm the brute-force triangle count equals the
// design-time prediction.
func TestDesignPredictionsMatchBruteForce(t *testing.T) {
	cases := []struct {
		pts  []int
		loop star.LoopMode
	}{
		{[]int{5, 3}, star.LoopNone},
		{[]int{5, 3}, star.LoopHub},  // Figure 2 top: 15 triangles
		{[]int{5, 3}, star.LoopLeaf}, // Figure 2 bottom
		{[]int{3, 4}, star.LoopHub},
		{[]int{3, 4, 5}, star.LoopHub},
		{[]int{3, 4, 5}, star.LoopLeaf},
		{[]int{4, 4, 4}, star.LoopHub},
		{[]int{2, 3, 4}, star.LoopLeaf},
		{[]int{9, 16}, star.LoopHub},
		{[]int{9, 16}, star.LoopLeaf},
	}
	for _, tc := range cases {
		d, err := core.FromPoints(tc.pts, tc.loop)
		if err != nil {
			t.Fatal(err)
		}
		predicted, err := d.Triangles()
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Realize()
		if err != nil {
			t.Fatal(err)
		}
		measured, err := CountBoth(a)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if predicted.Int64() != measured {
			t.Errorf("%v: predicted %s triangles, measured %d", d, predicted, measured)
		}
	}
}

// Figure 2's specific counts, measured on the realized 24-vertex graphs.
func TestFig2MeasuredCounts(t *testing.T) {
	top, err := core.FromPoints([]int{5, 3}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	a, err := top.Realize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountBoth(a)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("Fig 2 top measured %d triangles, want 15", got)
	}

	bottom, err := core.FromPoints([]int{5, 3}, star.LoopLeaf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bottom.Realize()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := CountBoth(b)
	if err != nil {
		t.Fatal(err)
	}
	// The body text of Section IV-C says 1; the caption says 3. Brute force
	// agrees with the text and the formula: exactly 1 triangle.
	if got2 != 1 {
		t.Errorf("Fig 2 bottom measured %d triangles, want 1", got2)
	}
}

// Property-style: random symmetric simple graphs — both counters agree.
func TestRandomGraphsCountersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		var tr []sparse.Triple[int64]
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(100) < 30 {
					tr = append(tr, sparse.Triple[int64]{Row: i, Col: j, Val: 1},
						sparse.Triple[int64]{Row: j, Col: i, Val: 1})
				}
			}
		}
		g := sparse.MustCOO(n, n, tr)
		la, err := CountLinearAlgebra(g)
		if err != nil {
			t.Fatal(err)
		}
		ni, err := CountNodeIterator(g)
		if err != nil {
			t.Fatal(err)
		}
		if la != ni {
			t.Fatalf("trial %d: linear-algebra %d != node-iterator %d", trial, la, ni)
		}
	}
}
