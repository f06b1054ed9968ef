// Package analyze provides structural graph analysis on realized adjacency
// matrices: BFS, connected components and degrees. It backs the structural
// claims around Figure 1 (the Kronecker product of two connected bipartite
// graphs consists of exactly two bipartite sub-graphs — Weichsel's theorem).
package analyze

import (
	"fmt"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Graph is an immutable analysis view over a symmetric adjacency matrix.
type Graph struct {
	csr *sparse.CSR[int64]
}

// NewGraph validates that the adjacency matrix is square and symmetric and
// returns an analysis view.
func NewGraph(a *sparse.COO[int64]) (*Graph, error) {
	sr := semiring.PlusTimesInt64()
	if a.NumRows != a.NumCols {
		return nil, fmt.Errorf("analyze: adjacency must be square, got %dx%d", a.NumRows, a.NumCols)
	}
	if !a.IsSymmetric(sr) {
		return nil, fmt.Errorf("analyze: adjacency must be symmetric")
	}
	return &Graph{csr: a.ToCSR(sr)}, nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.csr.NumRows }

// Neighbors returns vertex v's sorted adjacency list (shared storage; do
// not modify).
func (g *Graph) Neighbors(v int) []int {
	cols, _ := g.csr.Row(v)
	return cols
}

// BFS returns the hop distance from src to every vertex (-1 = unreachable).
// Self-loops do not affect distances.
func (g *Graph) BFS(src int) ([]int, error) {
	n := g.csr.NumRows
	if src < 0 || src >= n {
		return nil, fmt.Errorf("analyze: BFS source %d out of range [0, %d)", src, n)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, nil
}

// ConnectedComponents labels every vertex with a component id in [0, k) and
// returns the labels and k. Isolated vertices form their own components.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	n := g.csr.NumRows
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for src := 0; src < n; src++ {
		if labels[src] >= 0 {
			continue
		}
		labels[src] = count
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if labels[w] < 0 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// Degrees returns the structural degree (stored entries per row) of every
// vertex.
func (g *Graph) Degrees() []int {
	out := make([]int, g.csr.NumRows)
	for v := range out {
		out[v] = g.csr.RowNNZ(v)
	}
	return out
}
