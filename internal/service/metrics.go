package service

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics holds the service's counters, gauges, and latency histograms.
// Counters are plain atomics so the hot generation path pays one uncontended
// add per batch; histograms are obs's fixed-bucket atomic histograms (one
// atomic add per observation); and Stages is the process-default pipeline
// stage registry — per-stage batches/edges/busy-seconds recorded by
// pipeline.Instrument wrappers in the job sink chain and validation's
// tally/scatter passes. The /metrics endpoint renders everything in
// Prometheus text exposition format without pulling in a client library.
type Metrics struct {
	JobsCreated   atomic.Int64 // counter: jobs admitted
	JobsRejected  atomic.Int64 // counter: jobs refused admission (concurrency limit)
	JobsDone      atomic.Int64 // counter: jobs finished successfully
	JobsFailed    atomic.Int64 // counter: jobs finished with an error
	JobsCancelled atomic.Int64 // counter: jobs cancelled by clients or shutdown
	JobsActive    atomic.Int64 // gauge: jobs admitted and not yet finished

	EdgesGenerated atomic.Int64 // counter: edges produced by generation workers
	EdgesStreamed  atomic.Int64 // counter: edges encoded to clients
	StreamBytes    atomic.Int64 // counter: edge-stream body bytes written to clients, every format
	GenNanos       atomic.Int64 // counter: cumulative wall-clock nanoseconds of running generation

	DesignsComputed atomic.Int64 // counter: property computations performed
	CacheHits       atomic.Int64 // counter: design cache hits
	CacheMisses     atomic.Int64 // counter: design cache misses

	ValidationsRun   atomic.Int64 // counter: design-level validation reports merged (one per plan, not per job)
	ValidationsExact atomic.Int64 // counter: validations reporting exact agreement

	ShardValidationsRun    atomic.Int64 // counter: per-shard validation measurements executed
	ShardValidationsMerged atomic.Int64 // counter: complete shard plans merged into design-level reports

	ShardJobs atomic.Int64 // counter: sharded generation jobs admitted

	// HTTPLatency is the per-route request latency histogram family,
	// observed by the access-log middleware on every request and labelled by
	// the ServeMux route pattern that matched.
	HTTPLatency *obs.HistogramVec
	// JobQueueWait measures admitted→started: how long jobs sit in the
	// pending state (consumer attach wait plus split realization) before
	// generation begins.
	JobQueueWait *obs.Histogram
	// JobRealize measures consumer-attached→planned: the split realization
	// (NewGenerator) inside the queue wait, shown on its own so the wait
	// separates a slow client from slow set-up.
	JobRealize *obs.Histogram
	// JobRunTime measures started→finished: the generation phase proper.
	JobRunTime *obs.Histogram
	// StreamBatchGap measures the inter-arrival time between consecutive
	// runs observed by one /edges consumer — the streaming side's
	// answer to "is generation or the client the bottleneck" (long gaps with
	// a fast client mean generation is starved; short gaps with slow drains
	// mean the client is).
	StreamBatchGap *obs.Histogram
	// Stages is the pipeline stage registry rendered under
	// kronserve_stage_*; it aliases the process-default obs.Stages that
	// every Instrument wrapper in the process records into.
	Stages *obs.StageSet
}

// NewMetrics returns a Metrics with every histogram allocated. The zero
// Metrics value stays usable for counter-only callers (nil histograms drop
// observations), but only a NewMetrics instance renders the full exposition.
func NewMetrics() *Metrics {
	return &Metrics{
		// HTTP requests span instant property queries to chunked edge
		// streams: 100µs resolution up to ~26s, +Inf beyond.
		HTTPLatency: obs.NewHistogramVec("kronserve_http_request_seconds",
			"HTTP request latency by ServeMux route pattern.", "route",
			obs.ExpBuckets(100*time.Microsecond, 2, 18)),
		// Queue wait is dominated by consumer attach latency; jobs can
		// legitimately wait minutes (AttachTimeout defaults to 2m).
		JobQueueWait: obs.NewHistogram("kronserve_job_queue_wait_seconds",
			"Time from job admission to generation start (attach wait + split realization).",
			obs.ExpBuckets(time.Millisecond, 2, 18)),
		// Realization takes milliseconds for service-sized splits.
		JobRealize: obs.NewHistogram("kronserve_job_realize_seconds",
			"Time from consumer attach (or run start) to the job being planned: split realization.",
			obs.ExpBuckets(100*time.Microsecond, 2, 18)),
		JobRunTime: obs.NewHistogram("kronserve_job_run_seconds",
			"Time from generation start to the job's terminal state.",
			obs.ExpBuckets(time.Millisecond, 2, 20)),
		StreamBatchGap: obs.NewHistogram("kronserve_stream_batch_gap_seconds",
			"Inter-arrival time between runs at the edge-stream consumer.",
			obs.ExpBuckets(10*time.Microsecond, 2, 16)),
		Stages: obs.Stages,
	}
}

// EdgesPerSec returns the service-lifetime aggregate generation rate:
// total edges generated divided by cumulative active generation time.
func (m *Metrics) EdgesPerSec() float64 {
	ns := m.GenNanos.Load()
	if ns <= 0 {
		return 0
	}
	return float64(m.EdgesGenerated.Load()) / (float64(ns) / 1e9)
}

// WriteTo renders the metrics in Prometheus text exposition format. The
// whole exposition is staged through one bufio.Writer and flushed once, so a
// scrape costs one syscall burst instead of a write per series; the first
// underlying error sticks (bufio short-circuits after it) and is returned.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var n atomic.Int64
	bw := bufio.NewWriterSize(byteCounter{w, &n}, 32<<10)
	emit := func(name, help, typ string, value any) error {
		_, err := fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
		return err
	}
	for _, row := range []struct {
		name, help, typ string
		value           any
	}{
		{"kronserve_jobs_created_total", "Jobs admitted.", "counter", m.JobsCreated.Load()},
		{"kronserve_jobs_rejected_total", "Jobs refused admission at the concurrency limit.", "counter", m.JobsRejected.Load()},
		{"kronserve_jobs_done_total", "Jobs finished successfully.", "counter", m.JobsDone.Load()},
		{"kronserve_jobs_failed_total", "Jobs finished with an error.", "counter", m.JobsFailed.Load()},
		{"kronserve_jobs_cancelled_total", "Jobs cancelled.", "counter", m.JobsCancelled.Load()},
		{"kronserve_jobs_active", "Jobs admitted and not yet finished.", "gauge", m.JobsActive.Load()},
		{"kronserve_edges_generated_total", "Edges produced by generation workers.", "counter", m.EdgesGenerated.Load()},
		{"kronserve_edges_streamed_total", "Edges encoded to clients.", "counter", m.EdgesStreamed.Load()},
		{"kronserve_stream_bytes_total", "Edge-stream body bytes written to clients, every format.", "counter", m.StreamBytes.Load()},
		{"kronserve_generation_seconds_total", "Cumulative active generation time.", "counter", float64(m.GenNanos.Load()) / 1e9},
		{"kronserve_edges_per_second", "Lifetime aggregate generation rate.", "gauge", m.EdgesPerSec()},
		{"kronserve_designs_computed_total", "Design property computations performed.", "counter", m.DesignsComputed.Load()},
		{"kronserve_design_cache_hits_total", "Design cache hits.", "counter", m.CacheHits.Load()},
		{"kronserve_design_cache_misses_total", "Design cache misses.", "counter", m.CacheMisses.Load()},
		{"kronserve_validations_total", "Design-level validation reports merged; a job that adopts a sibling's report adds none.", "counter", m.ValidationsRun.Load()},
		{"kronserve_validations_exact_total", "Validations reporting exact agreement.", "counter", m.ValidationsExact.Load()},
		{"kronserve_shard_validations_total", "Per-shard validation measurements executed.", "counter", m.ShardValidationsRun.Load()},
		{"kronserve_shard_validations_merged_total", "Complete shard plans merged into design-level reports.", "counter", m.ShardValidationsMerged.Load()},
		{"kronserve_shard_jobs_total", "Sharded generation jobs admitted.", "counter", m.ShardJobs.Load()},
	} {
		if err := emit(row.name, row.help, row.typ, row.value); err != nil {
			return n.Load(), err
		}
	}
	// Histograms and stage counters render nothing when unset (zero-value
	// Metrics), so counter-only embedders keep their exposition.
	for _, h := range []interface {
		Render(io.Writer) error
	}{m.HTTPLatency, m.JobQueueWait, m.JobRealize, m.JobRunTime, m.StreamBatchGap} {
		if err := h.Render(bw); err != nil {
			return n.Load(), err
		}
	}
	if err := m.Stages.Render(bw, "kronserve"); err != nil {
		return n.Load(), err
	}
	err := bw.Flush()
	return n.Load(), err
}
