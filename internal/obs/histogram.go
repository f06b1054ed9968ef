// Package obs is the dependency-free observability layer: lock-free
// fixed-bucket histograms, per-stage pipeline counters, and their Prometheus
// text exposition. Everything on an observation path is a handful of atomic
// adds — no locks, no allocations, no client library — so instruments can sit
// directly on the edge-generation hot path (hundreds of millions of events
// per second flow past the stage counters) without perturbing what they
// measure. Rendering, by contrast, happens once per scrape and pays for
// clarity: cumulative histogram buckets, HELP/TYPE headers, sorted label
// sets.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ExpBuckets returns n log-spaced histogram bucket bounds starting at start
// and growing by factor: start, start·factor, start·factor², … — the classic
// latency-histogram scheme where each bucket's relative error is bounded by
// the factor. factor must be > 1 and start > 0.
func ExpBuckets(start time.Duration, factor float64, n int) []time.Duration {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d): need start > 0, factor > 1, n ≥ 1", start, factor, n))
	}
	out := make([]time.Duration, n)
	f := float64(start)
	for i := range out {
		out[i] = time.Duration(f)
		f *= factor
	}
	return out
}

// Histogram is a fixed-bucket duration histogram: one atomic add per
// observation into the bucket whose upper bound first covers the value, plus
// one atomic add into the nanosecond sum. Bounds are fixed at construction
// (log-spaced via ExpBuckets by convention), so Observe never allocates and
// never takes a lock — it is safe on any hot path. The zero Histogram is not
// usable; a nil *Histogram ignores observations, so optional instruments can
// stay unwired.
type Histogram struct {
	name   string
	help   string
	bounds []time.Duration // ascending upper bounds; implicit +Inf after the last
	counts []atomic.Int64  // len(bounds)+1; the last slot is the +Inf bucket
	sum    atomic.Int64    // nanoseconds
}

// NewHistogram returns a histogram named name with the given ascending
// bucket upper bounds (the +Inf bucket is implicit).
func NewHistogram(name, help string, buckets []time.Duration) *Histogram {
	if len(buckets) == 0 {
		panic("obs: NewHistogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: NewHistogram %q: bounds not ascending at %d", name, i))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]time.Duration(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
}

// Observe records one duration. Nil-safe and allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	// Linear scan: bucket lists are short (≤ ~24) and the loop is branch-
	// predictable; a binary search saves nothing at this size.
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Render writes the histogram in Prometheus text exposition format:
// HELP and TYPE headers, cumulative _bucket series ending in le="+Inf",
// then _sum (seconds) and _count.
func (h *Histogram) Render(w io.Writer) error {
	if h == nil {
		return nil
	}
	if err := writeHistogramHeader(w, h.name, h.help); err != nil {
		return err
	}
	return h.writeSeries(w, h.name, "")
}

// writeSeries renders the sample lines under name with labelPrefix (either
// empty or `key="value",` — note the trailing comma) spliced before le.
func (h *Histogram) writeSeries(w io.Writer, name, labelPrefix string) error {
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
			name, labelPrefix, formatSeconds(h.bounds[i]), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, cum); err != nil {
		return err
	}
	labels := ""
	if labelPrefix != "" {
		labels = "{" + strings.TrimSuffix(labelPrefix, ",") + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, labels, formatSeconds(time.Duration(h.sum.Load()))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}

// formatSeconds renders a duration as a seconds float with full precision,
// the unit Prometheus histograms conventionally carry.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

func writeHistogramHeader(w io.Writer, name, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	return err
}

// HistogramVec is a family of Histograms distinguished by one label (per-
// route HTTP latency, for example). Children are created on first use and
// live forever — the label space must be bounded (route patterns are; raw
// URLs are not). The read path is one lock-free sync.Map load.
type HistogramVec struct {
	name    string
	help    string
	label   string
	buckets []time.Duration
	m       sync.Map // label value (string) -> *Histogram
}

// NewHistogramVec returns a histogram family keyed by the given label name.
func NewHistogramVec(name, help, label string, buckets []time.Duration) *HistogramVec {
	return &HistogramVec{name: name, help: help, label: label, buckets: buckets}
}

// With returns the child histogram for the label value, creating it on first
// use. Nil-safe: a nil vec returns a nil histogram, whose Observe is a no-op.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	if h, ok := v.m.Load(value); ok {
		return h.(*Histogram)
	}
	h, _ := v.m.LoadOrStore(value, NewHistogram(v.name, v.help, v.buckets))
	return h.(*Histogram)
}

// Render writes every child under one HELP/TYPE header, sorted by label
// value for a stable scrape.
func (v *HistogramVec) Render(w io.Writer) error {
	if v == nil {
		return nil
	}
	var keys []string
	v.m.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	if err := writeHistogramHeader(w, v.name, v.help); err != nil {
		return err
	}
	for _, k := range keys {
		h, _ := v.m.Load(k)
		prefix := fmt.Sprintf("%s=\"%s\",", v.label, escapeLabel(k))
		if err := h.(*Histogram).writeSeries(w, v.name, prefix); err != nil {
			return err
		}
	}
	return nil
}

// escapeLabel escapes a label value per the exposition format. %q already
// escapes quotes and backslashes Go-style, which coincides with the
// Prometheus escaping for the characters route patterns can contain; this
// handles the general case explicitly.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}
