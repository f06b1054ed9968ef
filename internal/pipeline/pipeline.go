// Package pipeline is the unified edge-pipeline layer: one composable
// contract for consuming the generator's communication-free edge stream.
//
// The paper's central observation is that generation, measurement, and
// verification are all folds over the same edge stream. A Sink makes
// "generate once, consume K ways" a primitive: gen.StreamTo drives any Sink,
// and Tee fans one generation pass out to writers, counters, checksums, and
// the service's async hand-off at once.
//
// The sink contract:
//
//   - WriteRun(p, r) receives worker p's next run: at most the pass's batch
//     size of consecutive edges of one shared, immutable C block, shifted by
//     the B triple's block offset (graphio.Run). A run only points at its
//     block, so a sink may keep it after the call (Async does); a sink
//     encodes it (Writer), expands it into edges (Func) or folds it in
//     closed form (Counter, Checksum).
//   - WriteRun is called concurrently from distinct worker indices p, and
//     serially within one p. Sinks either keep per-worker state (Counter,
//     Checksum, PerWorker) or serialize internally (Writer, Async).
//   - Close is called exactly once, by the streaming driver, after every
//     WriteRun has returned — on both success and failure — so consumers
//     blocked on a sink's output (the service's edge stream) always observe
//     end-of-stream.
package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graphio"
)

// Edge aliases graphio.Edge, the unit every layer of the stack streams.
type Edge = graphio.Edge

// Run aliases graphio.Run: a slice of a shared block at one block offset.
type Run = graphio.Run

// Sink consumes a generator's edge stream run by run. See the package
// comment for the ownership and concurrency contract.
type Sink interface {
	// WriteRun consumes worker p's next run.
	WriteRun(p int, r Run) error
	// Close releases the sink after the stream ends (flush writers, close
	// channels). Called once, even after an error.
	Close() error
}

// Func adapts an edge-batch callback to a Sink with a no-op Close: each run
// is expanded into global-coordinate edges and handed over as one batch.
// The batch buffer is reused after the callback returns, so a callback that
// retains edges beyond the call must copy them.
type Func func(p int, batch []Edge) error

// funcBufs recycles Func's expansion buffers. A Func is a bare callback with
// nowhere to keep per-worker state, so each run borrows a buffer for the
// length of one call; at steady state every borrow is a pool hit.
var funcBufs = sync.Pool{New: func() any { return new([]Edge) }}

// WriteRun expands the run and invokes the callback.
func (f Func) WriteRun(p int, r Run) error {
	buf := funcBufs.Get().(*[]Edge)
	*buf = r.AppendEdges((*buf)[:0])
	err := f(p, *buf)
	funcBufs.Put(buf)
	return err
}

// Close is a no-op.
func (Func) Close() error { return nil }

// RunFunc adapts a run callback to a Sink with a no-op Close, for folds
// that account for a run without expanding it (a progress counter adds
// r.Len()).
type RunFunc func(p int, r Run) error

// WriteRun invokes the callback.
func (f RunFunc) WriteRun(p int, r Run) error { return f(p, r) }

// Close is a no-op.
func (RunFunc) Close() error { return nil }

// tee fans every run out to each child in order.
type tee []Sink

// Tee returns a Sink that hands every run to each of sinks, in argument
// order, within the producing worker's call — one generation pass feeds all
// of them (stream TSV, count, and checksum simultaneously). The first child
// error stops the run and propagates. Close closes every child, even after
// an error, and joins their errors.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return tee(sinks)
}

func (t tee) WriteRun(p int, r Run) error {
	for _, s := range t {
		if err := s.WriteRun(p, r); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) Close() error { return closeAll(t) }

// closeAll closes every sink and joins their errors.
func closeAll(sinks []Sink) error {
	var errs []error
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// keepOpen shields a sink from the streaming driver's Close.
type keepOpen struct {
	Sink
}

func (keepOpen) Close() error { return nil }

// KeepOpen returns s with Close turned into a no-op, for sinks whose
// lifecycle outlives one streaming pass: the owner closes the underlying
// sink itself once it has finished its own bookkeeping (the job service
// closes its stream hand-off only after the job's terminal state is
// recorded, so the consumer's end-of-stream snapshot sees the final state).
func KeepOpen(s Sink) Sink { return keepOpen{s} }

// perWorker routes worker p's runs to the p-th child.
type perWorker []Sink

// PerWorker returns a Sink that routes worker p's runs to sinks[p], giving
// each generation worker an unshared consumer — per-worker chunk files, for
// example — so no serialization is needed and per-worker output order is
// deterministic. A worker index outside the sink list is an error. Close
// closes every child and joins their errors.
func PerWorker(sinks ...Sink) Sink { return perWorker(sinks) }

func (w perWorker) WriteRun(p int, r Run) error {
	if err := checkWorker(p, len(w)); err != nil {
		return err
	}
	return w[p].WriteRun(p, r)
}

func (w perWorker) Close() error { return closeAll(w) }

// checkWorker rejects a worker index outside a sink built for np workers.
func checkWorker(p, np int) error {
	if p < 0 || p >= np {
		return fmt.Errorf("pipeline: worker %d outside the %d workers the sink was built for", p, np)
	}
	return nil
}

// paddedInt64 keeps each worker's fold slot on its own cache line so the
// per-run folds never share lines across workers.
type paddedInt64 struct {
	n int64
	_ [56]byte
}

// Counter is a fold Sink that counts streamed edges in closed form: a run
// adds its length, no edge is touched. Each worker folds into its own padded
// slot; Total merges them.
type Counter struct {
	slots []paddedInt64
}

// NewCounter returns a Counter for worker indices [0, np).
func NewCounter(np int) *Counter { return &Counter{slots: make([]paddedInt64, np)} }

// WriteRun adds the run's length to worker p's count.
func (c *Counter) WriteRun(p int, r Run) error {
	if err := checkWorker(p, len(c.slots)); err != nil {
		return err
	}
	c.slots[p].n += int64(r.Len())
	return nil
}

// Close is a no-op; the fold lives in the slots until Total reads them.
func (c *Counter) Close() error { return nil }

// Total returns the edges counted, summed across workers. Call it only
// after the streaming pass has ended: the slots are written without
// synchronization by the workers (the whole point of the padded per-worker
// layout), so a concurrent read races. Drivers that need live progress keep
// their own atomics (the job service's progress fold does).
func (c *Counter) Total() int64 {
	var n int64
	for i := range c.slots {
		n += c.slots[i].n
	}
	return n
}

// Checksum is a fold Sink computing the XOR content checksum of a stream —
// s ^= row·31 + col per edge, XOR across workers, the folding the KRNB
// trailer and shard plans carry — so a live stream's checksum reconciles
// directly against CountEdges, CountShard, and ChecksumPlan values. XOR's
// commutativity makes the result independent of worker count and run
// interleaving.
type Checksum struct {
	slots []paddedInt64
}

// NewChecksum returns a Checksum for worker indices [0, np).
func NewChecksum(np int) *Checksum { return &Checksum{slots: make([]paddedInt64, np)} }

// WriteRun folds the run into worker p's slot (graphio.Run.FoldChecksum).
func (c *Checksum) WriteRun(p int, r Run) error {
	if err := checkWorker(p, len(c.slots)); err != nil {
		return err
	}
	c.slots[p].n = r.FoldChecksum(c.slots[p].n)
	return nil
}

// Close is a no-op; the fold lives in the slots until Sum reads them.
func (c *Checksum) Close() error { return nil }

// Sum returns the XOR of every worker's folded checksum. As with
// Counter.Total, call it only after the streaming pass has ended — the
// slots are unsynchronized by design.
func (c *Checksum) Sum() int64 {
	var s int64
	for i := range c.slots {
		s ^= c.slots[i].n
	}
	return s
}

// writerSink serializes a shared EdgeWriter behind a mutex.
type writerSink struct {
	mu sync.Mutex
	ew graphio.EdgeWriter
}

// Writer wraps a graphio.EdgeWriter as a Sink. Runs are encoded whole under
// a mutex, so the output interleaves worker runs atomically; with one
// worker — or one Writer per worker via PerWorker — the byte stream is
// deterministic. Close finishes writers whose format has an explicit
// end-of-stream marker (graphio.Finisher, e.g. the binary trailer) and
// flushes; a sink Close marks a complete stream, so compositions ending in
// Writer get the trailer for free. Wrap with KeepOpen to close a pipeline
// without ending the underlying stream.
func Writer(ew graphio.EdgeWriter) Sink { return &writerSink{ew: ew} }

func (w *writerSink) WriteRun(p int, r Run) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ew.WriteRun(r)
}

func (w *writerSink) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f, ok := w.ew.(graphio.Finisher); ok {
		// Finish writes the trailer and flushes.
		return f.Finish()
	}
	return w.ew.Flush()
}
