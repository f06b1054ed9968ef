package pipeline

import (
	"time"

	"repro/internal/obs"
)

// instrumented wraps a sink and folds every run into a stage's counters.
type instrumented struct {
	stage *obs.Stage
	sink  Sink
}

// Instrument wraps sink so that every WriteRun records into stage: one
// batch (the stage's unit of delivery — here, one run), the run's edge
// count, and the wall-clock time the wrapped sink spent handling it (its
// "busy" time, summed across workers). The wrapper adds two time.Now reads
// and three atomic adds per run and allocates nothing, so it can sit on the
// service's streaming hot path and inside validation's measurement passes —
// per-stage batches, edges, and busy_seconds are what turn "the pipeline is
// slow" into "this stage is the bottleneck". Recording is routed by worker
// index into the stage's striped padded cells, so parallel passes never
// write-share a counter cache line through their instrumentation. Close
// passes through untouched: instrumentation must not change the sink
// lifecycle it observes.
func Instrument(stage *obs.Stage, sink Sink) Sink {
	return &instrumented{stage: stage, sink: sink}
}

func (i *instrumented) WriteRun(p int, r Run) error {
	start := time.Now()
	err := i.sink.WriteRun(p, r)
	i.stage.RecordWorker(p, r.Len(), time.Since(start))
	return err
}

func (i *instrumented) Close() error { return i.sink.Close() }
