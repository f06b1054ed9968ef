// Byte-parity contract of the Writer sink against a per-callback stream, on
// randomized designs. Lives in an external test package because it drives
// the real generator (gen sits above pipeline in the layer stack). Run under
// -race in CI (the pipeline package is in the race matrix): the Tee fans
// runs out from concurrent workers, and the fold sinks' per-worker slots
// must never race.
package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// TestTeeWriterByteParity pins that one StreamTo pass through
// Tee(PerWorker(Writer(TSV)...), Counter, Checksum) produces TSV bytes
// identical to a per-callback loop that expands every run with a Func and
// prints each edge with fmt, while the teed checksum equals CountEdges' and
// the XOR of the shard plan's CountShard checksums — generate once, consume
// three ways, nothing changed on the wire.
func TestTeeWriterByteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1803))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 6; trial++ {
		nf := 3 + rng.Intn(3) // 3..5 factors
		points := make([]int, nf)
		for i := range points {
			points[i] = 2 + rng.Intn(5) // m̂ ∈ 2..6
		}
		loop := loops[rng.Intn(len(loops))]
		nb := 1 + rng.Intn(nf-1)
		np := 1 + rng.Intn(4)
		batchSize := 1 + rng.Intn(200)
		d, err := core.FromPoints(points, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.New(d, nb)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the per-callback form — each worker prints its
		// expanded batches line by line.
		refBufs := make([]bytes.Buffer, np)
		err = g.StreamTo(context.Background(), np, batchSize, pipeline.Func(func(p int, batch []gen.Edge) error {
			for _, e := range batch {
				fmt.Fprintf(&refBufs[p], "%d\t%d\t%d\n", e.Row, e.Col, e.Val)
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}

		// Pipeline: the same pass as one Tee — per-worker Writer sinks plus
		// the counter and checksum folds.
		pipeBufs := make([]bytes.Buffer, np)
		sinks := make([]pipeline.Sink, np)
		for p := range sinks {
			sinks[p] = pipeline.Writer(graphio.NewTSVEdgeWriter(&pipeBufs[p]))
		}
		cnt, sum := pipeline.NewCounter(np), pipeline.NewChecksum(np)
		err = g.StreamTo(context.Background(), np, batchSize,
			pipeline.Tee(pipeline.PerWorker(sinks...), cnt, sum))
		if err != nil {
			t.Fatal(err)
		}

		for p := range refBufs {
			if !bytes.Equal(refBufs[p].Bytes(), pipeBufs[p].Bytes()) {
				t.Fatalf("%v nb=%d np=%d batch=%d: worker %d pipeline bytes differ from per-callback stream (%d vs %d bytes)",
					d, nb, np, batchSize, p, pipeBufs[p].Len(), refBufs[p].Len())
			}
		}
		if got := cnt.Total(); got != g.NumEdges() {
			t.Fatalf("%v nb=%d: teed counter %d, want %d", d, nb, got, g.NumEdges())
		}
		wantTotal, wantChecksum, err := g.CountEdges(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Total() != wantTotal {
			t.Fatalf("%v nb=%d: teed counter %d, CountEdges %d", d, nb, cnt.Total(), wantTotal)
		}
		if got := sum.Sum(); got != wantChecksum {
			t.Fatalf("%v nb=%d: teed checksum %x, CountEdges %x", d, nb, got, wantChecksum)
		}

		// The same fold reconciles against the deterministic shard plan:
		// XOR of per-shard checksums equals the live stream's.
		k := 1 + rng.Intn(4)
		plan, err := gen.PlanDesignShards(d, nb, k)
		if err != nil {
			t.Fatal(err)
		}
		var xor int64
		for _, s := range plan {
			n, sum, err := g.CountShard(context.Background(), s, 2)
			if err != nil {
				t.Fatal(err)
			}
			if n != s.Edges {
				t.Fatalf("%v nb=%d k=%d shard %d: CountShard %d edges, plan %d", d, nb, k, s.Shard, n, s.Edges)
			}
			xor ^= sum
		}
		if xor != sum.Sum() {
			t.Fatalf("%v nb=%d k=%d: plan checksum XOR %x != teed stream checksum %x",
				d, nb, k, xor, sum.Sum())
		}
	}
}
