// Parallel generation: the Section V algorithm end to end. A design is
// split into A = B ⊗ C; each simulated processor takes an equal slice of
// B's triples and locally forms Ap = Bp ⊗ C with no communication. The
// example shows the per-worker load balance, streams one edge-list chunk per
// worker (the natural distributed output), reads the chunks back, and
// checks their summed edge count against the design — then sweeps the
// worker count to show Figure 3's linear scaling shape.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graphio"
	"repro/internal/pipeline"
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

	// Stream one chunk per worker, as krongen -stream does: each worker
	// writes its own file, with no coordination. Then read the chunks back
	// and verify the total.
	dir, err := os.MkdirTemp("", "krongen")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	files := make([]*os.File, np)
	sinks := make([]pipeline.Sink, np)
	for p := range files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("edges_%04d.tsv", p)))
		if err != nil {
			log.Fatal(err)
		}
		files[p] = f
		sinks[p] = pipeline.Writer(graphio.NewTSVEdgeWriter(f))
	}
	if err := g.StreamTo(context.Background(), np, 0, pipeline.PerWorker(sinks...)); err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, f := range files {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			log.Fatal(err)
		}
		m, err := graphio.ReadTSV(f, int(g.NumVertices()), int(g.NumVertices()))
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		total += m.NNZ()
	}
	fmt.Printf("\nwrote and re-read %d chunks: %d edges total (design says %d)\n",
		len(files), total, g.NumEdges())

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
