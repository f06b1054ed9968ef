package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graphio"
)

// mkRun returns a run of n edges (base+i, base+2i, 1) over its own block.
func mkRun(n int, base int64) Run {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Row: int64(i), Col: int64(2 * i), Val: 1}
	}
	return Run{Block: graphio.NewBlock(edges), Hi: n, RowBase: base, ColBase: base}
}

// foldChecksum is the definitional per-edge fold over expanded runs.
func foldChecksum(runs ...Run) int64 {
	var s int64
	for _, r := range runs {
		for _, e := range r.AppendEdges(nil) {
			s ^= e.Row*31 + e.Col
		}
	}
	return s
}

func TestCounterAndChecksumFolds(t *testing.T) {
	const np = 3
	cnt, sum := NewCounter(np), NewChecksum(np)
	runs := []Run{mkRun(5, 0), mkRun(7, 100), mkRun(1, 9)}
	var total int64
	for p, r := range runs {
		if err := cnt.WriteRun(p, r); err != nil {
			t.Fatal(err)
		}
		if err := sum.WriteRun(p, r); err != nil {
			t.Fatal(err)
		}
		total += int64(r.Len())
	}
	// A second run on worker 0 folds into the same slot, and a sub-range
	// counts only its own edges.
	extra := mkRun(9, 50)
	extra.Lo, extra.Hi = 2, 6
	if err := cnt.WriteRun(0, extra); err != nil {
		t.Fatal(err)
	}
	if err := sum.WriteRun(0, extra); err != nil {
		t.Fatal(err)
	}
	total += int64(extra.Len())
	if got := cnt.Total(); got != total {
		t.Fatalf("Counter.Total = %d, want %d", got, total)
	}
	want := foldChecksum(append(runs, extra)...)
	if got := sum.Sum(); got != want {
		t.Fatalf("Checksum.Sum = %x, want %x", got, want)
	}
	// A fold built for np workers rejects any other index instead of
	// writing outside its slots.
	for _, p := range []int{-1, np} {
		if err := cnt.WriteRun(p, mkRun(1, 0)); err == nil {
			t.Errorf("Counter accepted worker %d of %d", p, np)
		}
		if err := sum.WriteRun(p, mkRun(1, 0)); err == nil {
			t.Errorf("Checksum accepted worker %d of %d", p, np)
		}
	}
}

// recordSink logs the order of calls it receives, optionally failing.
type recordSink struct {
	name     string
	log      *[]string
	writeErr error
	closeErr error
}

func (r *recordSink) WriteRun(p int, run Run) error {
	*r.log = append(*r.log, fmt.Sprintf("%s.write(%d,%d)", r.name, p, run.Len()))
	return r.writeErr
}

func (r *recordSink) Close() error {
	*r.log = append(*r.log, r.name+".close")
	return r.closeErr
}

func TestTeeOrderErrorAndClose(t *testing.T) {
	var log []string
	a := &recordSink{name: "a", log: &log}
	b := &recordSink{name: "b", log: &log, writeErr: errors.New("b refuses")}
	c := &recordSink{name: "c", log: &log, closeErr: errors.New("c close failed")}
	tee := Tee(a, b, c)

	err := tee.WriteRun(1, mkRun(2, 0))
	if err == nil || !strings.Contains(err.Error(), "b refuses") {
		t.Fatalf("tee write error = %v, want b's", err)
	}
	// The run stopped at b: c never saw it.
	if want := []string{"a.write(1,2)", "b.write(1,2)"}; !equalStrings(log, want) {
		t.Fatalf("tee call order %v, want %v", log, want)
	}

	log = log[:0]
	cerr := tee.Close()
	// Every child closes, even though c's close fails.
	if want := []string{"a.close", "b.close", "c.close"}; !equalStrings(log, want) {
		t.Fatalf("tee close order %v, want %v", log, want)
	}
	if cerr == nil || !strings.Contains(cerr.Error(), "c close failed") {
		t.Fatalf("tee close error = %v, want c's", cerr)
	}
}

func TestTeeSingleSinkPassThrough(t *testing.T) {
	var log []string
	a := &recordSink{name: "a", log: &log}
	if got := Tee(a); got != Sink(a) {
		t.Fatal("Tee of one sink should return it unchanged")
	}
}

func TestPerWorkerRoutingAndBounds(t *testing.T) {
	var log []string
	s := PerWorker(&recordSink{name: "w0", log: &log}, &recordSink{name: "w1", log: &log})
	if err := s.WriteRun(1, mkRun(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun(0, mkRun(1, 0)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"w1.write(1,3)", "w0.write(0,1)"}; !equalStrings(log, want) {
		t.Fatalf("routing %v, want %v", log, want)
	}
	if err := s.WriteRun(2, mkRun(1, 0)); err == nil {
		t.Fatal("worker index beyond the sink list must error")
	}
	log = log[:0]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"w0.close", "w1.close"}; !equalStrings(log, want) {
		t.Fatalf("close order %v, want %v", log, want)
	}
}

func TestKeepOpenShieldsClose(t *testing.T) {
	var log []string
	a := &recordSink{name: "a", log: &log, closeErr: errors.New("never seen")}
	k := KeepOpen(a)
	if err := k.WriteRun(0, mkRun(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal("KeepOpen.Close must be a no-op")
	}
	if want := []string{"a.write(0,1)"}; !equalStrings(log, want) {
		t.Fatalf("calls %v, want %v (no close)", log, want)
	}
}

func TestWriterEncodesAndFlushesOnClose(t *testing.T) {
	var buf bytes.Buffer
	w := Writer(graphio.NewTSVEdgeWriter(&buf))
	run := Run{Block: graphio.NewBlock([]Edge{{Row: 0, Col: 0, Val: 3}}), Hi: 1, RowBase: 1, ColBase: 2}
	if err := w.WriteRun(0, run); err != nil {
		t.Fatal(err)
	}
	// Nothing reaches the underlying writer until the buffered encoder
	// flushes — Close is the flush point.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "1\t2\t3\n"; got != want {
		t.Fatalf("Writer output %q, want %q", got, want)
	}
}

func TestAsyncDeliversRunsAndCloses(t *testing.T) {
	a := NewAsync(context.Background(), 2)
	in := mkRun(5, 7)
	if err := a.WriteRun(0, in); err != nil {
		t.Fatal(err)
	}
	// A run only points at its immutable block, so the consumer receives
	// the producer's value itself: no copy, nothing to hand back.
	if got := <-a.Out(); got != in {
		t.Fatalf("delivered run %+v, want %+v", got, in)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("Async.Close must be idempotent")
	}
	if _, ok := <-a.Out(); ok {
		t.Fatal("channel still open after Close")
	}
}

func TestAsyncBackpressureAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	a := NewAsync(ctx, 1)
	if err := a.WriteRun(0, mkRun(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Queue full, no consumer: the next write must block until cancel.
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteRun(0, mkRun(1, 0)) }()
	select {
	case err := <-errCh:
		t.Fatalf("write on a full queue returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked write returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked write did not abort after cancel")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWriterCloseFinishesBinaryStream: Writer's Close must end streams whose
// format has an explicit end-of-stream marker — a composition ending in a
// binary edge writer produces a complete, trailer-carrying stream without
// the driver knowing the format.
func TestWriterCloseFinishesBinaryStream(t *testing.T) {
	var buf bytes.Buffer
	ew, err := graphio.NewBinaryEdgeWriter(&buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	sink := Writer(ew)
	if err := sink.WriteRun(0, mkRun(5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	info, err := graphio.ReadBinary(context.Background(), &buf, func(batch []graphio.Edge) error {
		n += len(batch)
		return nil
	})
	if err != nil {
		t.Fatalf("stream closed through Writer does not decode: %v", err)
	}
	if n != 5 || info.Edges != 5 {
		t.Fatalf("decoded %d edges (trailer %d), wrote 5", n, info.Edges)
	}
	if want := foldChecksum(mkRun(5, 3)); info.Checksum != want {
		t.Fatalf("trailer checksum %#x, fold %#x", uint64(info.Checksum), uint64(want))
	}
	// KeepOpen shields the trailer too: closing a KeepOpen-wrapped Writer
	// must leave the stream open for more edges.
	var buf2 bytes.Buffer
	ew2, err := graphio.NewBinaryEdgeWriter(&buf2, -1)
	if err != nil {
		t.Fatal(err)
	}
	shielded := KeepOpen(Writer(ew2))
	if err := shielded.WriteRun(0, mkRun(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := shielded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ew2.WriteEdges([]graphio.Edge{{Row: 9, Col: 9, Val: 1}}); err != nil {
		t.Fatalf("KeepOpen-closed binary stream rejected further edges: %v", err)
	}
}
