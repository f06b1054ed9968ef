package gen

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// deltaShardStream streams one shard single-worker through a Writer sink
// into a buffer, with delta replay on or off (off = the per-edge oracle,
// which encodes identical block frames edge by edge).
func deltaShardStream(t *testing.T, g *Generator, s ShardInfo, batchSize int, replay bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	ew, err := graphio.NewBinaryEdgeWriter(&buf, s.Edges)
	if err != nil {
		t.Fatal(err)
	}
	ew.SetBlockReplay(replay)
	if err := g.StreamShardTo(context.Background(), s, 1, batchSize, pipeline.Writer(ew)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBinary reads a complete KRNB stream back into edges.
func decodeBinary(t *testing.T, data []byte) ([]Edge, *graphio.BinaryInfo) {
	t.Helper()
	var got []Edge
	info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(data), func(batch []graphio.Edge) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, info
}

// TestBlockStreamWireParity is the end-to-end conformance property of the
// delta wire path: for randomized designs, shard plans K ∈ {1, 2, 3, 7} and
// run lengths, the replayed delta stream of every shard (one block frame,
// then run frames) is byte-identical to the per-edge oracle's, decodes to
// exactly the shard's edges, and carries the plan's closed-form count and
// the shard's CountShard checksum in its trailer.
func TestBlockStreamWireParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8192))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 4; trial++ {
		nf := 3 + rng.Intn(3)
		points := make([]int, nf)
		for i := range points {
			points[i] = 2 + rng.Intn(5)
		}
		loop := loops[rng.Intn(len(loops))]
		nb := 1 + rng.Intn(nf-1)
		batchSize := 1 + rng.Intn(64)
		d, err := core.FromPoints(points, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(d, nb)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 7} {
			plan, err := PlanDesignShards(d, nb, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range plan {
				want := collectShard(t, g, s, 1)
				sum := shardChecksum(t, g, s)
				for _, batch := range []int{0, batchSize} {
					replayed := deltaShardStream(t, g, s, batch, true)
					oracle := deltaShardStream(t, g, s, batch, false)
					if !bytes.Equal(replayed, oracle) {
						t.Fatalf("%v nb=%d k=%d shard %d batch=%d: replayed stream (%d bytes) differs from per-edge oracle (%d bytes)",
							d, nb, k, s.Shard, batch, len(replayed), len(oracle))
					}
					got, info := decodeBinary(t, replayed)
					if int64(len(got)) != s.Edges || len(got) != len(want) {
						t.Fatalf("%v nb=%d k=%d shard %d batch=%d: decoded %d edges, shard stream %d, plan %d",
							d, nb, k, s.Shard, batch, len(got), len(want), s.Edges)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v nb=%d k=%d shard %d batch=%d: edge %d = %+v, shard stream %+v",
								d, nb, k, s.Shard, batch, i, got[i], want[i])
						}
					}
					if info.Edges != s.Edges || info.Checksum != sum {
						t.Fatalf("%v nb=%d k=%d shard %d batch=%d: trailer (%d, %#x), plan and CountShard (%d, %#x)",
							d, nb, k, s.Shard, batch, info.Edges, uint64(info.Checksum), s.Edges, uint64(sum))
					}
				}
			}
		}
	}
}
