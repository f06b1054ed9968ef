package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/service"
	"repro/kron"
)

// replayRepeats is how many times a traced run repeats each layer replay;
// it reports the median.
const replayRepeats = 3

// classDecoded labels edges decoded again from bytes held in memory.
const classDecoded = "decoded"

// workerFold is one generation worker's private tally in a replay sink,
// padded so workers do not share a cache line.
type workerFold struct {
	edges, checksum, batches, runs int64
	_                              [32]byte
}

// replayGen builds the generator for design d split after split factors and
// streams it twice: into a batch-only sink that reads every edge (the
// enumerated engine) and into block-capable folds (the closed-form block
// engine). Both must reproduce want.
func replayGen(ctx context.Context, tr *tracer, parent int, d *kron.Design, split int, want streamCount, m metrics) (*kron.Generator, error) {
	np := jobWorkers()
	batch := service.DefaultConfig().BatchSize

	var g *kron.Generator
	var setups []float64
	for range replayRepeats {
		sp := tr.begin("gen.setup", parent)
		t0 := time.Now()
		var err error
		g, err = kron.NewGenerator(d, split)
		setups = append(setups, msOf(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	m.set("gen.setup_ms", median(setups), "ms")

	sum := func(folds []workerFold) (total workerFold) {
		for _, f := range folds {
			total.edges += f.edges
			total.checksum ^= f.checksum
			total.batches += f.batches
			total.runs += f.runs
		}
		return total
	}

	var times []float64
	var enumerated workerFold
	for range replayRepeats {
		folds := make([]workerFold, np)
		sink := kron.SinkFunc(func(p int, b []kron.Edge) error {
			f := &folds[p]
			s := f.checksum
			for _, e := range b {
				s ^= e.Row*31 + e.Col
			}
			f.checksum = s
			f.edges += int64(len(b))
			f.batches++
			return nil
		})
		sp := tr.begin("gen.enumerate", parent)
		t0 := time.Now()
		err := kron.StreamTo(ctx, g, np, batch, sink)
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		enumerated = sum(folds)
	}
	if got := (streamCount{enumerated.edges, enumerated.checksum}); got != want {
		return nil, fmt.Errorf("enumerated generation gave %+v, the op %+v", got, want)
	}
	m.rate("gen.enumerated_edges_per_s", float64(want.edges)/median(times), "edges/s", classEnumerated)
	m.set("gen.batches_per_op", float64(enumerated.batches), "count")

	times = times[:0]
	var closed workerFold
	for range replayRepeats {
		folds := make([]workerFold, np)
		cnt, cks := kron.NewCounter(np), kron.NewChecksum(np)
		calls := kron.BlockHandler(
			func(p int, b []kron.Edge) error { folds[p].batches++; return nil },
			func(p int, run kron.BlockRun) error { folds[p].runs++; return nil },
		)
		sp := tr.begin("gen.closed_form", parent)
		t0 := time.Now()
		err := kron.StreamTo(ctx, g, np, batch, kron.Tee(cnt, cks, calls))
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		closed = sum(folds)
		closed.edges, closed.checksum = cnt.Total(), cks.Sum()
	}
	if got := (streamCount{closed.edges, closed.checksum}); got != want {
		return nil, fmt.Errorf("closed-form generation gave %+v, the op %+v", got, want)
	}
	m.rate("gen.closed_form_edges_per_s", float64(want.edges)/median(times), "edges/s", classClosedForm)
	m.set("gen.runs_per_op", float64(closed.runs), "count")
	return g, nil
}

// replayCore times Design.Compute directly on the given designs and
// records the median time and the median number of distinct degrees, the
// closed forms' work count.
func replayCore(tr *tracer, parent int, designs []service.DesignRequest, m metrics) error {
	var times, points []float64
	for _, req := range designs {
		d, err := req.Build()
		if err != nil {
			return err
		}
		sp := tr.begin("core.compute", parent)
		t0 := time.Now()
		p, err := d.Compute()
		times = append(times, msOf(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		points = append(points, float64(p.Degrees.Len()))
	}
	m.set("core.compute_ms", median(times), "ms")
	m.set("core.degree_points", median(points), "count")
	return nil
}
