package gen_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/star"
)

// The parity suite: one table whose rows cross every sink composition with
// every wire encoding, shard plan, loop mode and run length, all driven
// through the one generation loop. Each row streams every shard of its plan
// and checks, per shard, that the composition's output agrees with the runs
// the generator produced (which the harness records alongside), and, over
// the whole plan, that the shards reassemble the designed graph exactly.
// Run under -race in CI: every composition is fed by concurrent workers.

// parityCase is one row.
type parityCase struct {
	sink  string // sink composition under test; see newSubject
	enc   string // wire encoding: "tsv", "delta", "delta-oracle" (replay off), "fixed" (retired framings; see checkWire)
	loop  star.LoopMode
	k     int // shard plan size
	batch int // run length; batchOverC stands for nnz(C)+1
}

const (
	parityWorkers = 3
	batchOverC    = -1
)

func parityCases() []parityCase {
	var rows []parityCase
	for _, sink := range []string{"func", "counter", "checksum", "tee", "perworker", "instrument", "async"} {
		for _, enc := range []string{"tsv", "delta", "delta-oracle", "fixed"} {
			for _, loop := range []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf} {
				for _, k := range []int{1, 2, 3, 7} {
					for _, batch := range []int{1, 7, gen.DefaultBatchSize, batchOverC} {
						rows = append(rows, parityCase{sink, enc, loop, k, batch})
					}
				}
			}
		}
	}
	return rows
}

// parityDesign is one loop mode's design with everything the rows compare
// against: the serial realization, one full stream in worker order, and the
// checksummed shard plans.
type parityDesign struct {
	d         *core.Design
	g         *gen.Generator
	loop      [2]int64 // the removed self-loop, or (-1, -1)
	want      []gen.Edge
	canonical []gen.Edge
	plans     map[int][]gen.ShardInfo
}

func newParityDesign(t *testing.T, loop star.LoopMode) *parityDesign {
	t.Helper()
	d, err := core.FromPoints([]int{3, 4, 5}, loop)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.New(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	real, err := d.Realize()
	if err != nil {
		t.Fatal(err)
	}
	pd := &parityDesign{d: d, g: g, loop: [2]int64{-1, -1}, plans: map[int][]gen.ShardInfo{}}
	if r, c, ok := d.LoopPosition(); ok {
		pd.loop = [2]int64{int64(r), int64(c)}
	}
	for _, tr := range real.Tr {
		pd.want = append(pd.want, gen.Edge{Row: int64(tr.Row), Col: int64(tr.Col), Val: tr.Val})
	}
	slices.SortFunc(pd.want, cmpEdge)
	var perWorker [parityWorkers][]gen.Edge
	err = g.StreamTo(context.Background(), parityWorkers, 0, pipeline.Func(func(p int, batch []gen.Edge) error {
		perWorker[p] = append(perWorker[p], batch...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range perWorker {
		pd.canonical = append(pd.canonical, w...)
	}
	for _, k := range []int{1, 2, 3, 7} {
		plan, err := g.PlanShards(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ChecksumPlan(context.Background(), plan, 2); err != nil {
			t.Fatal(err)
		}
		pd.plans[k] = plan
	}
	return pd
}

func cmpEdge(a, b gen.Edge) int {
	if a.Row != b.Row {
		return int(a.Row - b.Row)
	}
	return int(a.Col - b.Col)
}

func TestRunParity(t *testing.T) {
	designs := map[star.LoopMode]*parityDesign{}
	for _, loop := range []star.LoopMode{star.LoopNone, star.LoopHub, star.LoopLeaf} {
		designs[loop] = newParityDesign(t, loop)
	}
	for _, tc := range parityCases() {
		pd := designs[tc.loop]
		batch := tc.batch
		if batch == batchOverC {
			batch = pd.g.CNNZ() + 1
		}
		name := fmt.Sprintf("%s/%s/%s/k=%d/batch=%d", tc.sink, tc.enc, tc.loop, tc.k, batch)
		t.Run(name, func(t *testing.T) {
			var stream []gen.Edge // every shard's edges, in (shard, worker) order
			var total, xor int64
			for _, s := range pd.plans[tc.k] {
				rec := newRecorder()
				sub := newSubject(t, tc, s)
				if err := pd.g.StreamShardTo(context.Background(), s, parityWorkers, batch, pipeline.Tee(rec, sub.sink)); err != nil {
					t.Fatalf("shard %d: %v", s.Shard, err)
				}
				got := rec.check(t, batch, pd.loop)
				if int64(len(got.all)) != s.Edges {
					t.Fatalf("shard %d streamed %d edges, plan says %d", s.Shard, len(got.all), s.Edges)
				}
				got.checkWire(t, tc.enc, s)
				sub.check(t, got)
				stream = append(stream, got.all...)
				total += s.Edges
				xor ^= s.Checksum
			}
			if !slices.Equal(stream, pd.canonical) {
				t.Fatalf("shards concatenated in order differ from the full stream")
			}
			checkBandOrder(t, stream)
			slices.SortFunc(stream, cmpEdge)
			if !slices.Equal(stream, pd.want) {
				t.Fatalf("shard union (%d edges) differs from the serial realization (%d edges)", len(stream), len(pd.want))
			}
			n, sum, err := pd.g.CountEdges(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if n != total || sum != xor {
				t.Fatalf("CountEdges (%d, %#x), plan (%d, %#x)", n, uint64(sum), total, uint64(xor))
			}
		})
	}
}

// recorder is the harness's own sink: it keeps every run each worker
// produced, in order.
type recorder struct {
	mu   sync.Mutex
	runs [parityWorkers][]pipeline.Run
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) WriteRun(p int, run pipeline.Run) error {
	r.mu.Lock()
	r.runs[p] = append(r.runs[p], run)
	r.mu.Unlock()
	return nil
}

func (r *recorder) Close() error { return nil }

// shardGot is one shard as the generator produced it.
type shardGot struct {
	runs   [parityWorkers][]pipeline.Run
	worker [parityWorkers][]gen.Edge // each worker's edges in order
	all    []gen.Edge                // the workers' edges concatenated
}

// check asserts the run contract — no run is empty or longer than batch,
// the removed self-loop never appears — and expands the runs.
func (r *recorder) check(t *testing.T, batch int, loop [2]int64) *shardGot {
	t.Helper()
	got := &shardGot{runs: r.runs}
	for p, runs := range r.runs {
		for _, run := range runs {
			if run.Len() < 1 || run.Len() > batch {
				t.Fatalf("worker %d run [%d, %d) holds %d edges, want 1..%d", p, run.Lo, run.Hi, run.Len(), batch)
			}
			got.worker[p] = run.AppendEdges(got.worker[p])
		}
		for _, e := range got.worker[p] {
			if e.Row == loop[0] && e.Col == loop[1] {
				t.Fatalf("worker %d emitted the removed self-loop %+v", p, e)
			}
		}
		got.all = append(got.all, got.worker[p]...)
	}
	return got
}

// checkWire encodes each worker's runs through a Writer in the row's
// encoding, checks replayed delta bytes against the per-edge oracle's, and
// round-trips the bytes through the reader: decoded edges must equal the
// expanded runs, and a KRNB trailer must carry the plan's count and
// checksum. In the "fixed" rows the stream is rewritten into the two
// retired framings, a header that claims the fixed-width encoding and a
// first frame tagged as an edge frame (kind 0), and each must be refused
// before any edge reaches emit.
func (got *shardGot) checkWire(t *testing.T, enc string, s gen.ShardInfo) {
	t.Helper()
	var edges, sum int64
	for p, runs := range got.runs {
		data := encodeRuns(t, enc, runs)
		switch enc {
		case "delta", "delta-oracle":
			other := map[string]string{"delta": "delta-oracle", "delta-oracle": "delta"}[enc]
			if !bytes.Equal(data, encodeRuns(t, other, runs)) {
				t.Fatalf("worker %d: replayed delta bytes differ from the per-edge oracle's", p)
			}
		case "fixed":
			fixed := slices.Clone(data)
			fixed[5] |= 1 // header flags bit 0: the retired fixed-width encoding
			refuseRetired(t, p, fixed, "fixed-width")
			if len(runs) > 0 {
				// No nnz in the header, so its first frame, a block
				// frame, starts at byte 6; the kind is its tag's low bits.
				edgeFrame := slices.Clone(data)
				edgeFrame[6] &^= 3
				refuseRetired(t, p, edgeFrame, "edge frame")
			}
		}
		dec, info := decode(t, enc, data)
		if !slices.Equal(dec, got.worker[p]) {
			t.Fatalf("worker %d: %s round trip gave %d edges, want the %d the runs expand to", p, enc, len(dec), len(got.worker[p]))
		}
		if info != nil {
			edges += info.Edges
			sum ^= info.Checksum
		}
	}
	if enc != "tsv" && (edges != s.Edges || sum != s.Checksum) {
		t.Fatalf("trailers (%d, %#x), plan (%d, %#x)", edges, uint64(sum), s.Edges, uint64(s.Checksum))
	}
}

// refuseRetired checks that ReadBinary refuses data, a stream in a retired
// framing, as corrupt with an error naming it, before any edge reaches
// emit.
func refuseRetired(t *testing.T, p int, data []byte, name string) {
	t.Helper()
	_, err := graphio.ReadBinary(context.Background(), bytes.NewReader(data), func(batch []gen.Edge) error {
		return fmt.Errorf("emitted %d edges", len(batch))
	})
	if !errors.Is(err, graphio.ErrBinaryCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("worker %d: stream with a %s read as %v, want ErrBinaryCorrupt naming it", p, name, err)
	}
}

// newWriter returns an edge writer in the given encoding over w; nnz < 0
// leaves a KRNB header's count out.
func newWriter(t *testing.T, enc string, w *bytes.Buffer, nnz int64) graphio.EdgeWriter {
	t.Helper()
	if enc == "tsv" {
		return graphio.NewTSVEdgeWriter(w)
	}
	bw, err := graphio.NewBinaryEdgeWriter(w, nnz)
	if err != nil {
		t.Fatal(err)
	}
	bw.SetBlockReplay(enc != "delta-oracle")
	return bw
}

func encodeRuns(t *testing.T, enc string, runs []pipeline.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pipeline.Writer(newWriter(t, enc, &buf, -1))
	for _, r := range runs {
		if err := w.WriteRun(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads a stream back; info is nil for TSV, which has no trailer.
func decode(t *testing.T, enc string, data []byte) ([]gen.Edge, *graphio.BinaryInfo) {
	t.Helper()
	if enc == "tsv" {
		m, err := graphio.ReadTSV(bytes.NewReader(data), 1<<30, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		var out []gen.Edge
		for _, tr := range m.Tr {
			out = append(out, gen.Edge{Row: int64(tr.Row), Col: int64(tr.Col), Val: tr.Val})
		}
		return out, nil
	}
	var out []gen.Edge
	info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(data), func(batch []gen.Edge) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("%s stream does not decode: %v", enc, err)
	}
	return out, info
}

// checkInterleaved asserts a stream a shared Writer produced from
// concurrent workers holds exactly the shard's edges with each worker's in
// order (runs are written atomically, so only whole runs interleave).
func checkInterleaved(t *testing.T, got *shardGot, dec []gen.Edge) {
	t.Helper()
	if len(dec) != len(got.all) {
		t.Fatalf("shared writer carried %d edges, the shard %d", len(dec), len(got.all))
	}
	at := map[gen.Edge][2]int{}
	for p, edges := range got.worker {
		for i, e := range edges {
			at[e] = [2]int{p, i}
		}
	}
	var next [parityWorkers]int
	for _, e := range dec {
		pos, ok := at[e]
		if !ok || pos[1] != next[pos[0]] {
			t.Fatalf("shared writer carried %+v out of its worker's order", e)
		}
		next[pos[0]]++
	}
}

// checkBandOrder asserts the band-order guarantee on a (shard, worker)
// ordered stream: every row's columns arrive strictly increasing.
func checkBandOrder(t *testing.T, stream []gen.Edge) {
	t.Helper()
	last := map[int64]int64{}
	for _, e := range stream {
		if prev, ok := last[e.Row]; ok && e.Col <= prev {
			t.Fatalf("row %d: column %d after %d breaks band order", e.Row, e.Col, prev)
		}
		last[e.Row] = e.Col
	}
}

// subject is a row's sink composition, built fresh for one shard, with the
// check its output must pass.
type subject struct {
	sink  pipeline.Sink
	check func(t *testing.T, got *shardGot)
}

func newSubject(t *testing.T, tc parityCase, s gen.ShardInfo) subject {
	t.Helper()
	checkFolds := func(t *testing.T, cnt *pipeline.Counter, cks *pipeline.Checksum) {
		t.Helper()
		if cnt != nil && cnt.Total() != s.Edges {
			t.Fatalf("Counter %d, plan %d", cnt.Total(), s.Edges)
		}
		if cks != nil && cks.Sum() != s.Checksum {
			t.Fatalf("Checksum %#x, plan %#x", uint64(cks.Sum()), uint64(s.Checksum))
		}
	}
	// shared is one Writer all workers write through; its stream must hold
	// the shard's edges, whole runs interleaved.
	var buf bytes.Buffer
	shared := func() pipeline.Sink { return pipeline.Writer(newWriter(t, tc.enc, &buf, s.Edges)) }
	checkShared := func(t *testing.T, got *shardGot) {
		t.Helper()
		dec, info := decode(t, tc.enc, buf.Bytes())
		checkInterleaved(t, got, dec)
		if info != nil && (info.NNZ != s.Edges || info.Edges != s.Edges || info.Checksum != s.Checksum) {
			t.Fatalf("shared stream header %d, trailer (%d, %#x), plan (%d, %#x)",
				info.NNZ, info.Edges, uint64(info.Checksum), s.Edges, uint64(s.Checksum))
		}
	}
	switch tc.sink {
	case "func":
		var mu sync.Mutex
		var edges [parityWorkers][]gen.Edge
		return subject{
			sink: pipeline.Func(func(p int, batch []gen.Edge) error {
				mu.Lock()
				edges[p] = append(edges[p], batch...)
				mu.Unlock()
				return nil
			}),
			check: func(t *testing.T, got *shardGot) {
				for p := range edges {
					if !slices.Equal(edges[p], got.worker[p]) {
						t.Fatalf("Func worker %d saw %d edges, want %d in run order", p, len(edges[p]), len(got.worker[p]))
					}
				}
			},
		}
	case "counter":
		cnt := pipeline.NewCounter(parityWorkers)
		return subject{cnt, func(t *testing.T, _ *shardGot) { checkFolds(t, cnt, nil) }}
	case "checksum":
		cks := pipeline.NewChecksum(parityWorkers)
		return subject{cks, func(t *testing.T, _ *shardGot) { checkFolds(t, nil, cks) }}
	case "tee":
		cnt, cks := pipeline.NewCounter(parityWorkers), pipeline.NewChecksum(parityWorkers)
		return subject{
			sink: pipeline.Tee(shared(), cnt, cks),
			check: func(t *testing.T, got *shardGot) {
				checkShared(t, got)
				checkFolds(t, cnt, cks)
			},
		}
	case "perworker":
		var bufs [parityWorkers]bytes.Buffer
		sinks := make([]pipeline.Sink, parityWorkers)
		for p := range sinks {
			sinks[p] = pipeline.Writer(newWriter(t, tc.enc, &bufs[p], -1))
		}
		return subject{
			sink: pipeline.PerWorker(sinks...),
			check: func(t *testing.T, got *shardGot) {
				for p := range bufs {
					if !bytes.Equal(bufs[p].Bytes(), encodeRuns(t, tc.enc, got.runs[p])) {
						t.Fatalf("PerWorker writer %d bytes differ from its runs' encoding", p)
					}
				}
			},
		}
	case "instrument":
		stage := obs.NewStageSet().Stage("parity")
		return subject{
			sink: pipeline.Instrument(stage, shared()),
			check: func(t *testing.T, got *shardGot) {
				checkShared(t, got)
				var runs int64
				for _, r := range got.runs {
					runs += int64(len(r))
				}
				if snap := stage.Snapshot(); snap.Batches != runs || snap.Edges != s.Edges {
					t.Fatalf("stage recorded %d runs / %d edges, want %d / %d", snap.Batches, snap.Edges, runs, s.Edges)
				}
			},
		}
	case "async":
		// The consumer keeps every run it receives past the producer's
		// call — allowed, since a run only points at the immutable block —
		// and writes them once the stream has ended.
		a := pipeline.NewAsync(context.Background(), 4)
		drained := make(chan []pipeline.Run, 1) // the consumer never waits on a failed row
		go func() {
			var kept []pipeline.Run
			for r := range a.Out() {
				kept = append(kept, r)
			}
			drained <- kept
		}()
		w := shared()
		return subject{
			sink: a,
			check: func(t *testing.T, got *shardGot) {
				for _, r := range <-drained {
					if err := w.WriteRun(0, r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				checkShared(t, got)
			},
		}
	}
	t.Fatalf("unknown sink composition %q", tc.sink)
	return subject{}
}
