// Parallel generation: the Section V algorithm end to end. A design is
// split into A = B ⊗ C; each simulated processor takes an equal slice of
// B's triples and locally forms Ap = Bp ⊗ C with no communication. The
// example shows the per-worker load balance, writes one edge-list chunk per
// worker (the natural distributed output), reads the chunks back, and
// checks the reassembled graph's edge count against the design — then
// sweeps the worker count to show Figure 3's linear scaling shape.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/sparse"
	"repro/kron"
)

func main() {
	design, err := kron.FromPoints([]int{3, 4, 5, 9, 16}, kron.LoopNone)
	if err != nil {
		log.Fatal(err)
	}
	g, err := kron.NewGenerator(design, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %v: %d vertices, %d edges\n", design, g.NumVertices(), g.NumEdges())
	fmt.Printf("split: nnz(B) = %d work units, nnz(C) = %d fan-out\n", g.BNNZ(), g.CNNZ())

	// Materialize per-worker parts and show the balance.
	const np = 4
	parts, err := g.Materialize(context.Background(), np)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-worker output (%d workers):\n", np)
	for _, p := range parts {
		fmt.Printf("  worker %d: %d edges, column offset %d\n",
			p.Worker, p.Ap.NNZ(), p.ColOffset)
	}

	// Write one chunk per worker, as a distributed run would, then read the
	// chunks back and verify the total.
	dir, err := os.MkdirTemp("", "krongen")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	global := make([]*sparse.COO[int64], len(parts))
	for i, p := range parts {
		m, err := g.Assemble([]gen.Part{p})
		if err != nil {
			log.Fatal(err)
		}
		global[i] = m
	}
	paths, err := graphio.WriteChunks(dir, "edges", global)
	if err != nil {
		log.Fatal(err)
	}
	whole, err := graphio.ReadChunks(paths, int(g.NumVertices()), int(g.NumVertices()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote and re-read %d chunks: %d edges total (design says %d)\n",
		len(paths), whole.NNZ(), g.NumEdges())

	// Rate sweep: the Figure 3 experiment shape.
	fmt.Println("\nedge generation rate vs workers:")
	for w := 1; w <= runtime.GOMAXPROCS(0)*2; w *= 2 {
		start := time.Now()
		total, _, err := g.CountEdges(context.Background(), w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d workers: %.3e edges/s (closed-form count)\n",
			w, float64(total)/time.Since(start).Seconds())
	}
}
