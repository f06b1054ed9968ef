// Fixture a: Func callbacks that retain the batch slice — every one of these
// must be flagged by sinkretain. Most are methods passed as method values;
// the last is a literal.
package a

type Edge struct{ Row, Col int64 }

var lastBatch []Edge

// FieldSink stores the slice in a struct field.
type FieldSink struct {
	last []Edge
	n    int
}

func (s *FieldSink) emit(p int, batch []Edge) error {
	s.last = batch // want `batch escapes the Func callback: stored in s\.last`
	s.n += len(batch)
	return nil
}

// GlobalSink stores the slice in a package-level variable.
type GlobalSink struct{}

func (GlobalSink) emit(p int, batch []Edge) error {
	lastBatch = batch // want `batch escapes the Func callback: stored in lastBatch declared outside the function`
	return nil
}

// CollectSink appends the slice itself (not its elements) into a retained
// slice of slices.
type CollectSink struct {
	batches [][]Edge
}

func (s *CollectSink) emit(p int, batch []Edge) error {
	s.batches = append(s.batches, batch) // want `batch escapes the Func callback: stored in s\.batches`
	return nil
}

// ChanSink sends the slice to another goroutine.
type ChanSink struct {
	ch chan []Edge
}

func (s *ChanSink) emit(p int, batch []Edge) error {
	s.ch <- batch // want `batch escapes the Func callback: sent on a channel`
	return nil
}

// GoSink copies, but from a spawned goroutine — the copy races with the
// producer's reuse of the slice.
type GoSink struct {
	out []Edge
}

func (s *GoSink) emit(p int, batch []Edge) error {
	go func() {
		s.out = append(s.out, batch...) // want `batch escapes the Func callback: captured by a goroutine`
	}()
	return nil
}

// AliasSink launders the slice through a local before storing it.
type AliasSink struct {
	keep []Edge
}

func (s *AliasSink) emit(p int, batch []Edge) error {
	b := batch
	s.keep = b // want `batch escapes the Func callback: stored in s\.keep`
	return nil
}

// SubsliceSink retains a re-slice, which shares the backing array.
type SubsliceSink struct {
	head []Edge
}

func (s *SubsliceSink) emit(p int, batch []Edge) error {
	if len(batch) > 0 {
		s.head = batch[:1] // want `batch escapes the Func callback: stored in s\.head`
	}
	return nil
}

// PtrSink retains a pointer into the batch's backing array.
type PtrSink struct {
	first *Edge
}

func (s *PtrSink) emit(p int, batch []Edge) error {
	if len(batch) > 0 {
		s.first = &batch[0] // want `batch escapes the Func callback: stored in s\.first`
	}
	return nil
}

// Callback literals carry the same contract.
func streamBatches(np int, emit func(p int, batch []Edge) error) error {
	buf := make([]Edge, 4)
	for p := 0; p < np; p++ {
		if err := emit(p, buf); err != nil {
			return err
		}
	}
	return nil
}

var collected [][]Edge

func UseEmit() error {
	return streamBatches(2, func(p int, batch []Edge) error {
		collected = append(collected, batch) // want `batch escapes the Func callback: stored in collected declared outside the function`
		return nil
	})
}
