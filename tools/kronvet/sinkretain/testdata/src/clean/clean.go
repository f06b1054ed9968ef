// Fixture clean: Func callbacks that use the batch only during the call —
// element-wise copies, folds, reads by value, synchronous delegation — and
// run sinks that keep runs, which point at an immutable block. None of
// these may be flagged.
package clean

import "sync"

type Edge struct{ Row, Col int64 }

// Run mirrors pipeline.Run: a slice of a shared immutable block.
type Run struct {
	Block  *[]Edge
	Lo, Hi int
}

// async mirrors pipeline.Async: it sends the run itself, which is allowed.
type async struct {
	ch chan Run
}

func (a *async) WriteRun(p int, r Run) error {
	a.ch <- r
	return nil
}

// keeper retains runs in a field, which is allowed too.
type keeper struct {
	kept []Run
}

func (k *keeper) WriteRun(p int, r Run) error {
	k.kept = append(k.kept, r)
	return nil
}

// counter folds the batch length per worker.
type counter struct {
	slots []int64
}

func (c *counter) emit(p int, batch []Edge) error {
	c.slots[p] += int64(len(batch))
	return nil
}

// checksum ranges over the batch (element copies) and folds values.
type checksum struct {
	slots []int64
}

func (c *checksum) emit(p int, batch []Edge) error {
	s := c.slots[p]
	for _, e := range batch {
		s ^= e.Row*31 + e.Col
	}
	c.slots[p] = s
	return nil
}

// writer serializes and delegates the encode, a synchronous call bound by
// the same contract.
type encoder interface {
	WriteEdges(edges []Edge) error
}

type writer struct {
	mu  sync.Mutex
	enc encoder
}

func (w *writer) emit(p int, batch []Edge) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.WriteEdges(batch)
}

// copySink retains edge values, not the slice: spread append copies.
type copySink struct {
	all []Edge
}

func (s *copySink) emit(p int, batch []Edge) error {
	s.all = append(s.all, batch...)
	return nil
}

// elemSink reads an element by value — a copy, not an alias.
type elemSink struct {
	last Edge
}

func (s *elemSink) emit(p int, batch []Edge) error {
	if len(batch) > 0 {
		s.last = batch[len(batch)-1]
	}
	return nil
}

// streamTo stands in for gen.StreamTo over a Func sink.
func streamTo(np int, emit func(p int, batch []Edge) error) error {
	buf := make([]Edge, 4)
	for p := 0; p < np; p++ {
		if err := emit(p, buf); err != nil {
			return err
		}
	}
	return nil
}

// CollectEdges uses a callback literal doing an element-wise copy: the
// test-helper shape.
func CollectEdges(np int) ([]Edge, error) {
	var got []Edge
	var mu sync.Mutex
	err := streamTo(np, func(p int, batch []Edge) error {
		mu.Lock()
		got = append(got, batch...)
		mu.Unlock()
		return nil
	})
	return got, err
}
