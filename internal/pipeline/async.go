package pipeline

import (
	"context"
	"sync"
)

// Async is the bounded hand-off between generation workers and a single
// asynchronous consumer — the service's streaming hot path. Producers send
// each run through a bounded channel; the consumer drains Out. A run is a
// few words pointing at the generator's immutable block, so nothing is
// copied or handed back, and the queue holds at most depth runs of at most
// one batch each. The channel is the backpressure boundary: when
// the consumer falls behind, WriteRun blocks until a slot frees or ctx is
// cancelled.
type Async struct {
	ctx  context.Context // nil means never cancelled
	done <-chan struct{} // nil when ctx is nil: blocks forever in select
	ch   chan Run
	once sync.Once
}

// NewAsync returns an Async sink whose channel buffers depth runs (depth 0
// yields an unbuffered, fully synchronous hand-off). A WriteRun blocked on
// a full channel aborts with ctx's error when ctx is cancelled; a nil ctx
// means never cancelled (a receive from the nil done channel blocks
// forever, so no substitute context is minted).
func NewAsync(ctx context.Context, depth int) *Async {
	a := &Async{ctx: ctx, ch: make(chan Run, depth)}
	if ctx != nil {
		a.done = ctx.Done()
	}
	return a
}

// WriteRun sends the run to the consumer, blocking when the channel is full
// (backpressure) until ctx cancels.
func (a *Async) WriteRun(p int, r Run) error {
	select {
	case a.ch <- r:
		return nil
	case <-a.done:
		return a.ctx.Err()
	}
}

// Close closes the consumer channel; the consumer sees end-of-stream after
// draining the runs already queued. Idempotent: the streaming driver closes
// the sink when the pass ends, and an owner may also close it defensively
// on paths where the stream never starts.
func (a *Async) Close() error {
	a.once.Do(func() { close(a.ch) })
	return nil
}

// Out returns the consumer side. The channel closes when the producer side
// closes the sink.
func (a *Async) Out() <-chan Run { return a.ch }
