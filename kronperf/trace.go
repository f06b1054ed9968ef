package main

import (
	"slices"
	"strings"
	"time"
)

// span is one timed call at a layer boundary: its name is "<layer>.<call>",
// its parent the span that caused it, and every span of one op carries that
// op's id. An aggregate span folds Agg calls (the socket reads under one
// decode) into a single interval laid out from Start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Agg    int     `json:"agg,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so the untraced run pays one nil check per call. The
// benchmark's client is one sequential loop, so the tracer takes no lock.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp stamps the spans that follow with op id op; -1 marks spans outside
// the timed ops (the layer replays).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// aggregate records n calls that took d in total, starting at start, as one
// child span of parent.
func (t *tracer) aggregate(name string, parent int, start time.Time, d time.Duration, n int) {
	if t == nil || n == 0 {
		return
	}
	s := start.Sub(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: s, End: s + d.Seconds(), Agg: n})
}

// durationsMS returns the durations of the op spans named name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Op >= 0 && s.Name == name {
			out = append(out, 1e3*(s.End-s.Start))
		}
	}
	return out
}

// selfSeconds sums each layer's self time over the op spans: every span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	slices.SortFunc(ivs, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total float64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
