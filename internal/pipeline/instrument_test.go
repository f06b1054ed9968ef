package pipeline

import (
	"errors"
	"io"
	"testing"

	"repro/internal/graphio"
	"repro/internal/obs"
)

func testRun(n int) Run { return mkRun(n, 0) }

// TestInstrumentRecords pins the stage fold: batches (one per run), edges,
// and a non-zero busy time accumulate, the wrapped sink sees every run, and
// errors pass through with the run still recorded (a failing stage's counters must
// show how far it got).
func TestInstrumentRecords(t *testing.T) {
	set := obs.NewStageSet()
	st := set.Stage("test_counter")
	cnt := NewCounter(2)
	sink := Instrument(st, cnt)

	if err := sink.WriteRun(0, testRun(100)); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteRun(1, testRun(50)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cnt.Total(); got != 150 {
		t.Fatalf("wrapped sink saw %d edges, want 150", got)
	}
	s := st.Snapshot()
	if s.Batches != 2 || s.Edges != 150 {
		t.Fatalf("stage snapshot %+v, want 2 batches / 150 edges", s)
	}
	if s.Busy <= 0 {
		t.Fatalf("stage busy time %v, want > 0", s.Busy)
	}

	boom := errors.New("boom")
	fail := Instrument(set.Stage("test_fail"), Func(func(int, []Edge) error { return boom }))
	if err := fail.WriteRun(0, testRun(10)); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if s := set.Stage("test_fail").Snapshot(); s.Batches != 1 || s.Edges != 10 {
		t.Fatalf("failed run not recorded: %+v", s)
	}
}

// TestInstrumentCloseOnce pins the lifecycle pass-through: Close reaches the
// wrapped sink exactly once and its error propagates.
func TestInstrumentCloseOnce(t *testing.T) {
	closes := 0
	cerr := errors.New("close failed")
	sink := Instrument(obs.NewStageSet().Stage("x"), closeCounter{&closes, cerr})
	if err := sink.Close(); !errors.Is(err, cerr) {
		t.Fatalf("close error not propagated: %v", err)
	}
	if closes != 1 {
		t.Fatalf("wrapped Close ran %d times, want 1", closes)
	}
}

type closeCounter struct {
	n   *int
	err error
}

func (c closeCounter) WriteRun(int, Run) error { return nil }
func (c closeCounter) Close() error            { *c.n++; return c.err }

// BenchmarkInstrumentedSink measures the per-run cost Instrument adds over
// a bare Counter fold — the instrumentation overhead the observability layer
// pins below 2% of streamed throughput (the kronbench fig3 snapshot records
// the end-to-end generation-rate delta; this isolates the per-call cost).
func BenchmarkInstrumentedSink(b *testing.B) {
	run := testRun(16384)
	b.Run("bare", func(b *testing.B) {
		cnt := NewCounter(1)
		b.SetBytes(int64(run.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cnt.WriteRun(0, run); err != nil {
				b.Fatal(err)
			}
		}
		reportEdgesPerSec(b, run.Len())
	})
	b.Run("instrumented", func(b *testing.B) {
		sink := Instrument(obs.NewStageSet().Stage("bench"), NewCounter(1))
		b.SetBytes(int64(run.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.WriteRun(0, run); err != nil {
				b.Fatal(err)
			}
		}
		reportEdgesPerSec(b, run.Len())
	})
}

func reportEdgesPerSec(b *testing.B, runLen int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*float64(runLen)/secs, "edges/s")
	}
}

// TestInstrumentZeroAllocs is the pipeline-level alloc guard: one
// instrumented WriteRun must not allocate (the service-level guard pins
// the whole jobSink chain; this isolates the combinator itself).
func TestInstrumentZeroAllocs(t *testing.T) {
	sink := Instrument(obs.NewStageSet().Stage("alloc"), NewCounter(1))
	run := testRun(1024)
	allocs := testing.AllocsPerRun(100, func() {
		if err := sink.WriteRun(0, run); err != nil {
			t.Fatal(err)
		}
	})
	if raceEnabled {
		t.Logf("race build: observed %.1f allocs/run; assertion skipped (instrumentation allocates)", allocs)
	} else if allocs != 0 {
		t.Fatalf("Instrument allocates %.1f times per run, want 0", allocs)
	}
}

// TestRunPathsZeroAllocs pins the run paths that expand or encode at zero
// allocations per run once their buffers have grown: Func's borrowed
// expansion buffer and every Writer encoding (TSV and MatrixMarket format
// the run's block-local edges into the writer's scratch; KRNB writes a run
// frame over the block it sent once).
func TestRunPathsZeroAllocs(t *testing.T) {
	mm, err := graphio.NewMatrixMarketEdgeWriter(io.Discard, 1<<40, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := graphio.NewBinaryEdgeWriter(io.Discard, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sink Sink
	}{
		{"func", Func(func(int, []Edge) error { return nil })},
		{"tsv", Writer(graphio.NewTSVEdgeWriter(io.Discard))},
		{"mm", Writer(mm)},
		{"bin-delta", Writer(bin)},
	} {
		run := mkRun(2048, 0)
		if err := c.sink.WriteRun(0, run); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			run.RowBase += int64(run.Len())
			if err := c.sink.WriteRun(0, run); err != nil {
				t.Fatal(err)
			}
		})
		if raceEnabled {
			t.Logf("%s: race build: observed %.1f allocs/run; assertion skipped", c.name, allocs)
		} else if allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", c.name, allocs)
		}
	}
}
