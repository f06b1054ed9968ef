package gen

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// collectStream runs one full StreamTo pass and returns the edges
// concatenated in worker order — the canonical stream order (B's CSC triples
// against row-major C).
func collectStream(t *testing.T, g *Generator, np int) []Edge {
	t.Helper()
	perWorker := make([][]Edge, np)
	var mu sync.Mutex
	err := g.StreamTo(context.Background(), np, 64, pipeline.Func(func(p int, batch []Edge) error {
		mu.Lock()
		perWorker[p] = append(perWorker[p], batch...)
		mu.Unlock()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var all []Edge
	for _, w := range perWorker {
		all = append(all, w...)
	}
	return all
}

// collectShard runs StreamShardTo for one shard and returns its edges in
// worker order.
func collectShard(t *testing.T, g *Generator, s ShardInfo, np int) []Edge {
	t.Helper()
	perWorker := make([][]Edge, np)
	var mu sync.Mutex
	err := g.StreamShardTo(context.Background(), s, np, 64, pipeline.Func(func(p int, batch []Edge) error {
		mu.Lock()
		perWorker[p] = append(perWorker[p], batch...)
		mu.Unlock()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var all []Edge
	for _, w := range perWorker {
		all = append(all, w...)
	}
	return all
}

// TestShardUnionParity is the cross-shard conformance property: for
// randomized designs and K ∈ {1, 2, 3, 7}, the concatenation of all
// StreamShardTo outputs equals the full StreamTo stream edge-for-edge,
// per-shard closed-form edge counts sum to CountEdges' total, and the XOR of
// per-shard checksums reproduces the whole-graph checksum. Run under -race
// in CI (the gen package is in the race matrix).
func TestShardUnionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41472))
	loops := []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf}
	for trial := 0; trial < 6; trial++ {
		nf := 3 + rng.Intn(3) // 3..5 factors
		points := make([]int, nf)
		for i := range points {
			points[i] = 2 + rng.Intn(5) // m̂ ∈ 2..6
		}
		loop := loops[rng.Intn(len(loops))]
		nb := 1 + rng.Intn(nf-1)
		d, err := core.FromPoints(points, loop)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(d, nb)
		if err != nil {
			t.Fatal(err)
		}
		full := collectStream(t, g, 1+rng.Intn(4))
		if int64(len(full)) != g.NumEdges() {
			t.Fatalf("%v nb=%d: full stream emitted %d edges, want %d", d, nb, len(full), g.NumEdges())
		}
		wantTotal, wantChecksum, err := g.CountEdges(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range []int{1, 2, 3, 7} {
			plan, err := g.PlanShards(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan) != k {
				t.Fatalf("%v nb=%d k=%d: plan has %d shards", d, nb, k, len(plan))
			}
			// The design-level closed-form planner must agree with the
			// generator-side plan exactly.
			designPlan, err := PlanDesignShards(d, nb, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, designPlan) {
				t.Fatalf("%v nb=%d k=%d: generator plan %+v != design plan %+v", d, nb, k, plan, designPlan)
			}

			var union []Edge
			var planEdges int64
			for _, s := range plan {
				shardEdges := collectShard(t, g, s, 1+rng.Intn(3))
				if int64(len(shardEdges)) != s.Edges {
					t.Fatalf("%v nb=%d k=%d shard %d: streamed %d edges, plan says %d",
						d, nb, k, s.Shard, len(shardEdges), s.Edges)
				}
				union = append(union, shardEdges...)
				planEdges += s.Edges
			}
			if planEdges != wantTotal {
				t.Fatalf("%v nb=%d k=%d: plan edges %d != CountEdges %d", d, nb, k, planEdges, wantTotal)
			}
			if !reflect.DeepEqual(union, full) {
				t.Fatalf("%v nb=%d k=%d: shard union (%d edges) differs from full stream (%d edges)",
					d, nb, k, len(union), len(full))
			}

			if err := g.ChecksumPlan(context.Background(), plan, 2); err != nil {
				t.Fatal(err)
			}
			var xor int64
			for _, s := range plan {
				xor ^= s.Checksum
			}
			if xor != wantChecksum {
				t.Fatalf("%v nb=%d k=%d: XOR of shard checksums %x != CountEdges checksum %x",
					d, nb, k, xor, wantChecksum)
			}
		}
	}
}

// TestShardPlanDeterminism pins the plan-stability invariant the service's
// LRU rebuild depends on: planning the same (design, split, K) twice — from
// a fresh generator and from closed forms — yields identical plans.
func TestShardPlanDeterminism(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5, 9}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 16} {
		first, err := PlanDesignShards(d, 2, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := PlanDesignShards(d, 2, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("k=%d: rebuild %d differs: %+v vs %+v", k, i, first, again)
			}
		}
		g, err := New(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		genPlan, err := g.PlanShards(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, genPlan) {
			t.Fatalf("k=%d: generator plan differs from design plan", k)
		}
	}
}

// TestShardValidation covers the rejection surfaces: bad shard counts, bad
// ranges, and shards from a mismatched plan.
func TestShardValidation(t *testing.T) {
	d, err := core.FromPoints([]int{3, 4, 5}, star.LoopHub)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PlanShards(0); err == nil {
		t.Error("PlanShards(0) accepted")
	}
	if _, err := g.PlanShards(-3); err == nil {
		t.Error("PlanShards(-3) accepted")
	}
	if _, err := PlanDesignShards(d, 0, 2); err == nil {
		t.Error("PlanDesignShards with split 0 accepted")
	}
	noop := pipeline.Func(func(int, []Edge) error { return nil })
	for name, s := range map[string]ShardInfo{
		"index over":     {Shard: 2, Shards: 2, BLo: 0, BHi: 1},
		"negative index": {Shard: -1, Shards: 2, BLo: 0, BHi: 1},
		"zero shards":    {Shard: 0, Shards: 0, BLo: 0, BHi: 1},
		"range over":     {Shard: 0, Shards: 1, BLo: 0, BHi: g.BNNZ() + 1},
		"inverted range": {Shard: 0, Shards: 1, BLo: 3, BHi: 1},
		"negative lo":    {Shard: 0, Shards: 1, BLo: -1, BHi: 1},
	} {
		if err := g.StreamShardTo(context.Background(), s, 1, 0, noop); err == nil {
			t.Errorf("StreamShardTo accepted %s: %+v", name, s)
		}
		if _, _, err := g.CountShard(context.Background(), s, 1); err == nil {
			t.Errorf("CountShard accepted %s: %+v", name, s)
		}
	}
	// More shards than B triples: trailing shards are empty, stream nothing,
	// and the plan still sums exactly.
	plan, err := g.PlanShards(g.BNNZ() + 5)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range plan {
		total += s.Edges
	}
	if total != g.NumEdges() {
		t.Fatalf("oversharded plan sums to %d, want %d", total, g.NumEdges())
	}
	last := plan[len(plan)-1]
	if last.BLo != last.BHi || last.Edges != 0 {
		t.Fatalf("expected empty trailing shard, got %+v", last)
	}
	got := collectShard(t, g, last, 2)
	if len(got) != 0 {
		t.Fatalf("empty shard streamed %d edges", len(got))
	}
}
