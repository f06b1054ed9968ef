package main

import (
	"fmt"
	"slices"
	"syscall"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are what a user of the system sees; every workload
// reports each of them, and the untraced run prints them as its result.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are the traced run's result. A layer a workload does not
// reach reports 0, noted as off the workload's path.
var perLayerMetrics = []metricDef{
	// The traced run's own end-to-end numbers: against the untraced run
	// they show the tracing overhead.
	{"traced.ops_per_s", "1/s", "higher"},
	{"traced.op_p50_ms", "ms", "lower"},
	{"traced.op_tail_ms", "ms", "lower"},
	{"traced.edges_per_s", "edges/s", "higher"},
	{"traced.first_edge_p50_ms", "ms", "lower"},

	// Self time per op of each layer the ops' spans cover: a span's
	// duration minus the part of it its child spans cover.
	{"self.client_ms", "ms", "lower"},
	{"self.service_ms", "ms", "lower"},
	{"self.graphio_ms", "ms", "lower"},
	{"self.validate_ms", "ms", "lower"},

	{"graphio.decode_s", "s", "lower"},
	{"graphio.decode_edges_per_s", "edges/s", "higher"},
	{"graphio.encode_edges_per_s", "edges/s", "higher"},
	{"graphio.bytes_per_edge", "B/edge", "lower"},

	{"service.submit_ms", "ms", "lower"},
	{"service.first_byte_ms", "ms", "lower"},
	{"service.status_ms", "ms", "lower"},
	{"service.design_ms", "ms", "lower"},
	{"service.read_wait_s", "s", "lower"},
	{"service.wire_bytes_per_s", "B/s", "higher"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.queue_wait_s", "s", "lower"},

	{"pipeline.progress_batches", "count", "lower"},
	{"pipeline.progress_edges", "count", "higher"},
	{"pipeline.progress_busy_s", "s", "lower"},
	{"pipeline.checksum_batches", "count", "lower"},
	{"pipeline.checksum_edges", "count", "higher"},
	{"pipeline.checksum_busy_s", "s", "lower"},
	{"pipeline.stream_batches", "count", "lower"},
	{"pipeline.stream_edges", "count", "higher"},
	{"pipeline.stream_busy_s", "s", "lower"},

	{"gen.setup_ms", "ms", "lower"},
	{"gen.enumerated_edges_per_s", "edges/s", "higher"},
	{"gen.closed_form_edges_per_s", "edges/s", "higher"},
	{"gen.batches_per_op", "count", "lower"},
	{"gen.runs_per_op", "count", "lower"},

	{"validate.tally_s", "s", "lower"},
	{"sparse.finalize_s", "s", "lower"},
	{"validate.scatter_s", "s", "lower"},
	{"sparse.build_s", "s", "lower"},
	{"triangle.count_s", "s", "lower"},
	{"validate.tally_batches", "count", "lower"},
	{"validate.tally_busy_s", "s", "lower"},
	{"validate.scatter_batches", "count", "lower"},
	{"validate.scatter_busy_s", "s", "lower"},
	{"validate.edges", "count", "higher"},
	{"triangle.triangles", "count", "higher"},

	{"core.compute_ms", "ms", "lower"},
	{"core.degree_points", "count", "lower"},
}

// Counting classes label what a rate counted.
const (
	classEnumerated = "enumerated"  // every edge built one by one
	classClosedForm = "closed-form" // edges counted per block without being built
	classEncoded    = "encoded"     // edges the encoder turned into bytes
	classDelivered  = "delivered"   // edges a client read over a socket, decoded and checked
)

// measured is one metric's value as a run reports it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Class is the counting class of a rate.
	Class string `json:"class,omitempty"`
	// Note says how the value was taken: the percentile and sample count of
	// a tail, or why a layer reads 0.
	Note string `json:"note,omitempty"`
}

// metrics is a run's measured values by name.
type metrics map[string]measured

func (m metrics) set(name string, v float64, unit string) { m[name] = measured{Value: v, Unit: unit} }

func (m metrics) rate(name string, v float64, unit, class string) {
	m[name] = measured{Value: v, Unit: unit, Class: class}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the value at the highest percentile that still has at least
// tailBeyond samples above it, that percentile, and the samples above it.
// With too few samples it returns the maximum.
func tail(xs []float64) (value, percentile float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), len(s) - 1 - i
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak resident memory: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
