package analyze

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/star"
)

var sr = semiring.PlusTimesInt64()

func path(n int) *sparse.COO[int64] {
	var tr []sparse.Triple[int64]
	for i := 0; i+1 < n; i++ {
		tr = append(tr, sparse.Triple[int64]{Row: i, Col: i + 1, Val: 1},
			sparse.Triple[int64]{Row: i + 1, Col: i, Val: 1})
	}
	return sparse.MustCOO(n, n, tr)
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(sparse.MustCOO[int64](2, 3, nil)); err == nil {
		t.Error("non-square accepted")
	}
	asym := sparse.MustCOO(2, 2, []sparse.Triple[int64]{{Row: 0, Col: 1, Val: 1}})
	if _, err := NewGraph(asym); err == nil {
		t.Error("asymmetric accepted")
	}
}

func TestBFSDistances(t *testing.T) {
	g, err := NewGraph(path(5))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if _, err := g.BFS(9); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestBFSUnreachable(t *testing.T) {
	// Two disjoint edges.
	m := sparse.MustCOO(4, 4, []sparse.Triple[int64]{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	})
	g, err := NewGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable vertices have distances %d, %d", dist[2], dist[3])
	}
}

func TestConnectedComponents(t *testing.T) {
	m := sparse.MustCOO(5, 5, []sparse.Triple[int64]{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
		// vertex 4 isolated
	})
	g, err := NewGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	labels, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] {
		t.Errorf("labels = %v", labels)
	}
}

// Figure 1 / Weichsel's theorem: the Kronecker product of two connected
// bipartite graphs (two stars) has exactly two connected components, each
// bipartite.
func TestFig1TwoBipartiteSubgraphs(t *testing.T) {
	a := star.Spec{Points: 5, Loop: star.LoopNone}.Adjacency()
	b := star.Spec{Points: 3, Loop: star.LoopNone}.Adjacency()
	c, err := sparse.Kron(a, b, sr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(c)
	if err != nil {
		t.Fatal(err)
	}
	labels, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("star ⊗ star has %d components, want 2 (Weichsel)", k)
	}
	// Each component is bipartite: every edge joins BFS depths of opposite
	// parity.
	for comp := 0; comp < k; comp++ {
		dist, err := g.BFS(slices.Index(labels, comp))
		if err != nil {
			t.Fatal(err)
		}
		for u, du := range dist {
			for _, w := range g.Neighbors(u) {
				if du >= 0 && (du+dist[w])%2 == 0 {
					t.Fatalf("component %d: edge (%d,%d) joins depths %d and %d", comp, u, w, du, dist[w])
				}
			}
		}
	}
	// Both components non-trivial.
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	for i, s := range sizes {
		if s < 2 {
			t.Errorf("component %d has %d vertices", i, s)
		}
	}
}

// Hub loops make the product connected (the loop vertex bridges the parts).
func TestHubLoopProductConnected(t *testing.T) {
	d, err := core.FromPoints([]int{5, 3}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Realize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, k := g.ConnectedComponents(); k != 1 {
		t.Errorf("hub-loop product has %d components, want 1", k)
	}
}

func TestDegrees(t *testing.T) {
	g, err := NewGraph(star.Spec{Points: 4, Loop: star.LoopNone}.Adjacency())
	if err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	if deg[0] != 4 {
		t.Errorf("hub degree %d, want 4", deg[0])
	}
	for v := 1; v < 5; v++ {
		if deg[v] != 1 {
			t.Errorf("leaf %d degree %d, want 1", v, deg[v])
		}
	}
	if g.NumVertices() != 5 {
		t.Error("vertex count wrong")
	}
}
