package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stageCells is the number of independent counter cells a Stage stripes its
// recording across. Power of two so the worker index folds in with a mask.
const stageCells = 16

// stageCell is one stripe of a stage's counters, padded out to its own cache
// line. The three hot atomics (24 bytes) plus padding fill 128 bytes — two
// lines on common hardware, covering the adjacent-line prefetcher — so two
// workers recording into different cells never write-share a line.
type stageCell struct {
	batches   atomic.Int64
	edges     atomic.Int64
	busyNanos atomic.Int64
	_         [128 - 24]byte
}

// Stage holds the per-stage pipeline counters: batches consumed, edges
// consumed, and cumulative sink-occupancy ("busy") nanoseconds. Recording is
// three atomic adds per batch into a worker-striped, cache-line-padded cell —
// cheap enough to wrap every sink in a generation pass that moves hundreds of
// millions of edges per second, which is exactly where per-stage visibility
// is needed (pipeline.Instrument is the recording site). The striping matters
// at that rate: with a single set of counters, every worker's three adds
// contend on one cache line, and the line bounces between cores on each
// run; RecordWorker routes worker p to cell p&15, so up to 16 workers
// record with no write sharing at all. Busy time is wall-clock spent inside
// the wrapped sink's WriteRun summed across workers, so a stage whose
// busy_seconds grows much faster than real time is the parallel bottleneck
// and one whose busy share is tiny is free.
type Stage struct {
	name  string
	cells [stageCells]stageCell
}

// Name returns the stage's registered name.
func (s *Stage) Name() string { return s.name }

// RecordWorker folds one batch recorded by worker p into the stage. Workers
// up to stageCells apart land in distinct padded cells, so concurrent
// recording is free of false sharing. Nil-safe and allocation-free.
func (s *Stage) RecordWorker(p, edges int, busy time.Duration) {
	if s == nil {
		return
	}
	c := &s.cells[p&(stageCells-1)]
	c.batches.Add(1)
	c.edges.Add(int64(edges))
	c.busyNanos.Add(int64(busy))
}

// StageSnapshot is a point-in-time copy of one stage's counters.
type StageSnapshot struct {
	Name    string
	Batches int64
	Edges   int64
	Busy    time.Duration
}

// Snapshot sums the stage's cells into one point-in-time view. Each cell is
// read atomically but the cells are not read as one transaction; like any
// Prometheus counter scrape, the totals are monotone and eventually exact.
func (s *Stage) Snapshot() StageSnapshot {
	out := StageSnapshot{Name: s.name}
	var busy int64
	for i := range s.cells {
		c := &s.cells[i]
		out.Batches += c.batches.Load()
		out.Edges += c.edges.Load()
		busy += c.busyNanos.Load()
	}
	out.Busy = time.Duration(busy)
	return out
}

// StageSet is a registry of named stages. Stage lookup takes a mutex (done
// once per pipeline construction, never per batch); the stages themselves
// are lock-free.
type StageSet struct {
	mu sync.Mutex
	m  map[string]*Stage
}

// NewStageSet returns an empty stage registry.
func NewStageSet() *StageSet { return &StageSet{m: make(map[string]*Stage)} }

// Stages is the process-default stage registry — the one pipeline.Instrument,
// the job service's sink chains, and validation's tally/scatter passes all
// record into, and the one kronserve's /metrics renders. Like the Prometheus
// default registry, it is deliberately process-global: stage counters are
// lifetime totals, and every pipeline in the process contributes to the same
// picture.
var Stages = NewStageSet()

// Stage returns the named stage, creating it on first use.
func (ss *StageSet) Stage(name string) *Stage {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st, ok := ss.m[name]
	if !ok {
		st = &Stage{name: name}
		ss.m[name] = st
	}
	return st
}

// Snapshot returns a copy of every stage's counters, sorted by name.
func (ss *StageSet) Snapshot() []StageSnapshot {
	ss.mu.Lock()
	stages := make([]*Stage, 0, len(ss.m))
	for _, st := range ss.m {
		stages = append(stages, st)
	}
	ss.mu.Unlock()
	out := make([]StageSnapshot, len(stages))
	for i, st := range stages {
		out[i] = st.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Render writes the stage counters as three Prometheus counter families —
// <prefix>_stage_batches_total, <prefix>_stage_edges_total, and
// <prefix>_stage_busy_seconds_total — one series per stage, labelled
// {stage="<name>"} and sorted by stage name.
func (ss *StageSet) Render(w io.Writer, prefix string) error {
	if ss == nil {
		return nil
	}
	snaps := ss.Snapshot()
	families := []struct {
		suffix string
		help   string
		value  func(StageSnapshot) string
	}{
		{"stage_batches_total", "Batches consumed per instrumented pipeline stage.",
			func(s StageSnapshot) string { return fmt.Sprintf("%d", s.Batches) }},
		{"stage_edges_total", "Edges consumed per instrumented pipeline stage.",
			func(s StageSnapshot) string { return fmt.Sprintf("%d", s.Edges) }},
		{"stage_busy_seconds_total", "Cumulative wall-clock seconds spent inside each instrumented stage's WriteRun, summed across workers.",
			func(s StageSnapshot) string { return formatSeconds(s.Busy) }},
	}
	for _, f := range families {
		name := prefix + "_" + f.suffix
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, f.help, name); err != nil {
			return err
		}
		for _, s := range snaps {
			if _, err := fmt.Fprintf(w, "%s{stage=\"%s\"} %s\n", name, escapeLabel(s.Name), f.value(s)); err != nil {
				return err
			}
		}
	}
	return nil
}
