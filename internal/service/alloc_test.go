package service

import (
	"context"
	"io"
	"testing"

	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/kron"
)

// serviceRun is a run of n edges over its own block, as the generator would
// hand the job's sink chain.
func serviceRun(n int) pipeline.Run {
	block := make([]kron.Edge, n)
	for i := range block {
		block[i] = kron.Edge{Row: int64(i / 16), Col: int64(i % 16), Val: 1}
	}
	b, err := graphio.NewBlock(block)
	if err != nil {
		panic(err)
	}
	return pipeline.Run{Block: b, Hi: n}
}

// streamJobForAlloc returns a streaming job wired like Submit's, with a
// one-slot hand-off the test drains itself.
func streamJobForAlloc(id string) *Job {
	return &Job{
		id:       id,
		workers:  1,
		sink:     SinkStream,
		ctx:      context.Background(),
		cancel:   func() {},
		stream:   pipeline.NewAsync(context.Background(), 1),
		attachCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// TestStreamServiceZeroAllocsPerBatch is the alloc-regression guard for the
// streaming hot path: one steady-state round trip — a worker run through
// the job's full instrumented sink chain (progress fold, checksum fold,
// hand-off, each behind pipeline.Instrument), received by the consumer and
// written by the TSV stream's Writer, which expands it into its reused
// buffer — must allocate nothing. The pre-pipeline service failed this by
// construction: its emit callback copied every batch into a fresh slice.
// The round trip runs synchronously (write, receive, encode), the steady
// state by definition. Under -race the assertion is skipped (race
// instrumentation allocates) but the path still runs.
func TestStreamServiceZeroAllocsPerBatch(t *testing.T) {
	cfg := DefaultConfig()
	m := NewManager(cfg, &Metrics{})
	defer m.Close()
	j := streamJobForAlloc("jalloc")
	sink, cks := m.jobSink(j)
	out := pipeline.Writer(graphio.NewTSVEdgeWriter(io.Discard))
	// Snapshot the (process-global) stage counters so the end-of-test
	// assertion measures only this test's traffic.
	stageBefore := obs.Stages.Stage(stageProgress).Snapshot()
	run := serviceRun(cfg.BatchSize)
	roundTrip := func() {
		run.RowBase += 1 << 20
		if err := sink.WriteRun(0, run); err != nil {
			t.Fatal(err)
		}
		if err := out.WriteRun(0, <-j.stream.Out()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: the first round grows the Writer's expansion buffer.
	roundTrip()
	allocs := testing.AllocsPerRun(100, roundTrip)
	if raceEnabled {
		t.Logf("race build: observed %.1f allocs/run; assertion skipped (instrumentation allocates)", allocs)
	} else if allocs != 0 {
		t.Fatalf("streaming path allocates %.1f times per run, want 0 "+
			"(the pre-pipeline copy hand-off allocated every batch)", allocs)
	}
	// The chain is the real one: the teed progress and checksum folds saw
	// every round trip (the warm-up, AllocsPerRun's own warm-up, and the 100
	// timed rounds).
	if got := j.generated.Load(); got != 102*int64(cfg.BatchSize) {
		t.Fatalf("progress fold counted %d edges, want %d — the measured chain is not the service sink chain",
			got, 102*cfg.BatchSize)
	}
	// XORs of the timed rounds can cancel, so one distinct single-edge run
	// pins the checksum fold.
	before := cks.Sum()
	distinct := serviceRun(1)
	distinct.RowBase, distinct.ColBase = 1, 2
	if err := sink.WriteRun(0, distinct); err != nil {
		t.Fatal(err)
	}
	<-j.stream.Out()
	if cks.Sum() == before {
		t.Fatal("checksum fold never ran — the measured chain is not the service sink chain")
	}
	// The zero-alloc figure above covers the instrumentation wrappers too:
	// the stage counters must show every run this test pushed, or the
	// measured chain silently lost its Instrument layer.
	stageAfter := obs.Stages.Stage(stageProgress).Snapshot()
	if d := stageAfter.Batches - stageBefore.Batches; d < 103 { // plus the distinct run
		t.Fatalf("stage %q recorded %d runs during the test, want ≥ 103 — "+
			"the instrumented wrappers are not in the measured chain", stageProgress, d)
	}
	if stageAfter.Busy <= stageBefore.Busy {
		t.Fatalf("stage %q busy time did not advance", stageProgress)
	}
}

// TestStreamServiceZeroAllocsPerBlockRun is the same guard for the KRNB
// delta stream: the consumer's Writer sends the block once and each
// received run as a run frame. Nothing is cloned on the way — the hand-off
// carries the run itself — so after the block frame the round trip writes
// a few bytes per run.
func TestStreamServiceZeroAllocsPerBlockRun(t *testing.T) {
	cfg := DefaultConfig()
	m := NewManager(cfg, &Metrics{})
	defer m.Close()
	j := streamJobForAlloc("jblockalloc")
	sink, _ := m.jobSink(j)
	ew, err := graphio.NewBinaryEdgeWriter(io.Discard, -1)
	if err != nil {
		t.Fatal(err)
	}
	out := pipeline.Writer(ew)
	run := serviceRun(512)
	roundTrip := func() {
		run.RowBase += 512
		run.ColBase += 512
		if err := sink.WriteRun(0, run); err != nil {
			t.Fatal(err)
		}
		if err := out.WriteRun(0, <-j.stream.Out()); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	allocs := testing.AllocsPerRun(100, roundTrip)
	if raceEnabled {
		t.Logf("race build: observed %.1f allocs/run; assertion skipped (instrumentation allocates)", allocs)
	} else if allocs != 0 {
		t.Fatalf("delta streaming path allocates %.1f times per run, want 0", allocs)
	}
	if got, want := ew.Count(), int64(102*512); got != want {
		t.Fatalf("delta writer encoded %d edges, want %d", got, want)
	}
	if got := j.generated.Load(); got != 102*512 {
		t.Fatalf("progress fold counted %d edges, want %d", got, 102*512)
	}
}
