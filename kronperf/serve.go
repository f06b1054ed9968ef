package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
	"repro/kron"
)

// servePoints is the serve workloads' fig3-shaped point set (Figure 3 uses
// {3,4,5,81,256}): 1,399,680 edges, so a run completes a few hundred jobs.
var (
	servePoints      = []int{3, 4, 5, 9, 81}
	serveSmokePoints = []int{3, 4, 5}
)

// serveBench is one serve workload's run: every op designs, submits,
// streams, decodes and reconciles one job over one factor order of the
// point set. Every order has the same exact edge count; block shapes and
// the split differ.
type serveBench struct {
	format string
	// warmUp is the point set in its listed order, so set-up does the same
	// work whatever the seed.
	warmUp service.DesignRequest
	orders []service.DesignRequest
	// edges and vertices are predicted by kron, the same for every order.
	edges, vertices int64
	srv             *server
}

func prepareServe(format string) func(*rand.Rand, bool) (bench, error) {
	return func(rng *rand.Rand, smoke bool) (bench, error) {
		points := servePoints
		if smoke {
			points = serveSmokePoints
		}
		d, err := kron.FromPoints(points, kron.LoopNone)
		if err != nil {
			return nil, err
		}
		return &serveBench{
			format:   format,
			warmUp:   service.DesignRequest{Points: points, Loop: "none"},
			orders:   factorOrders(rng, points, "none"),
			edges:    d.NumEdges().Int64(),
			vertices: d.NumVertices().Int64(),
		}, nil
	}
}

func (b *serveBench) inputs() any {
	return struct {
		Format      string                  `json:"format"`
		Edges       int64                   `json:"edges"`
		WarmUp      service.DesignRequest   `json:"warm_up"`
		FactorOrder []service.DesignRequest `json:"factor_orders"`
	}{b.format, b.edges, b.warmUp, b.orders}
}

func (b *serveBench) setUp(ctx context.Context) error {
	srv, err := startServer(ctx)
	if err != nil {
		return err
	}
	b.srv = srv
	_, _, err = b.serve(ctx, b.warmUp, nil, nil)
	return err
}

func (b *serveBench) tearDown() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

func (b *serveBench) scrape(ctx context.Context) (map[string]float64, error) {
	return b.srv.scrape(ctx)
}

func (b *serveBench) op(ctx context.Context, i int, tr *tracer) (opResult, error) {
	r, _, err := b.serve(ctx, b.orders[i%len(b.orders)], tr, nil)
	return r, err
}

// serve runs one job end to end and returns what it delivered and the
// checksum it reconciled. keep, if set, receives a copy of the body.
func (b *serveBench) serve(ctx context.Context, d service.DesignRequest, tr *tracer, keep io.Writer) (opResult, int64, error) {
	var r opResult
	root := tr.begin("client.op", 0)
	defer tr.end(root)
	start := time.Now()

	var props service.DesignProperties
	sp := tr.begin("service.design", root)
	err := b.srv.call(ctx, http.MethodPost, "/v1/designs", d, &props)
	tr.end(sp)
	if err != nil {
		return r, 0, err
	}
	if props.Edges != strconv.FormatInt(b.edges, 10) {
		return r, 0, fmt.Errorf("%w: service predicts %s edges, kron %d", errUnverified, props.Edges, b.edges)
	}

	var job service.JobStatus
	sp = tr.begin("service.submit", root)
	err = b.srv.call(ctx, http.MethodPost, "/v1/jobs",
		service.JobRequest{DesignRequest: d, Workers: jobWorkers(), Sink: service.SinkStream}, &job)
	tr.end(sp)
	if err != nil {
		return r, 0, err
	}
	if job.TotalEdges != b.edges {
		return r, 0, fmt.Errorf("%w: job %s totals %d edges, the design predicts %d", errUnverified, job.ID, job.TotalEdges, b.edges)
	}

	sp = tr.begin("service.stream", root)
	got, err := b.stream(ctx, job.ID, tr, sp, start, keep, &r)
	tr.end(sp)
	if err != nil {
		return r, 0, err
	}

	var st service.JobStatus
	sp = tr.begin("service.status", root)
	err = b.srv.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil, &st)
	tr.end(sp)
	if err != nil {
		return r, 0, err
	}
	if err := reconcile(got, b.edges, st); err != nil {
		return r, 0, err
	}
	r.edges = got.edges
	return r, got.checksum, nil
}

// stream reads job id's edge stream to its end and decodes it.
func (b *serveBench) stream(ctx context.Context, id string, tr *tracer, parent int, start time.Time, keep io.Writer, r *opResult) (streamCount, error) {
	path := "/v1/jobs/" + id + "/edges?format=bin&enc=delta"
	decoder := "graphio.decode"
	if b.format == formatTSV {
		path = "/v1/jobs/" + id + "/edges?format=tsv"
		decoder = "client.parse"
	}
	sent := time.Now()
	sp := tr.begin("service.first_byte", parent)
	resp, err := b.srv.open(ctx, http.MethodGet, path, nil)
	tr.end(sp)
	if err != nil {
		return streamCount{}, err
	}
	defer resp.Body.Close()
	body := &timedReader{r: resp.Body, timed: tr != nil}
	var src io.Reader = body
	if keep != nil {
		src = io.TeeReader(body, keep)
	}

	sp = tr.begin(decoder, parent)
	t0 := time.Now()
	got, err := decodeStream(ctx, b.format, src, b.vertices, func() { r.firstEdge = time.Since(start) })
	elapsed := time.Since(t0)
	tr.aggregate("service.read_wait", sp, t0, body.wait, body.reads)
	tr.end(sp)

	r.wireBytes, r.readWait, r.streamTime = body.bytes, body.wait, time.Since(sent)
	if b.format == formatDelta {
		r.decode = elapsed - body.wait
	}
	return got, err
}

// layers serves one more job whose body it keeps, then replays the layers
// under it in isolation on that job's design: the client decoder from
// memory, the generator's enumerated and closed-form engines, and the
// encoder into io.Discard. Each replay must reproduce the job's edge count
// and checksum.
func (b *serveBench) layers(ctx context.Context, tr *tracer, m metrics) error {
	root := tr.begin("client.replay", 0)
	defer tr.end(root)
	d := b.orders[0]
	var body bytes.Buffer
	_, sum, err := b.serve(ctx, d, tr, &body)
	if err != nil {
		return fmt.Errorf("serving the replayed job: %w", err)
	}
	want := streamCount{edges: b.edges, checksum: sum}

	if b.format == formatDelta {
		var times []float64
		for range replayRepeats {
			sp := tr.begin("graphio.decode", root)
			t0 := time.Now()
			got, err := decodeStream(ctx, formatDelta, bytes.NewReader(body.Bytes()), b.vertices, nil)
			times = append(times, time.Since(t0).Seconds())
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("decoding the kept body: %w", err)
			}
			if got != want {
				return fmt.Errorf("decoding the kept body gave %+v, the job %+v", got, want)
			}
		}
		m.rate("graphio.decode_edges_per_s", float64(b.edges)/median(times), "edges/s", classDecoded)
	}

	kd, err := d.Build()
	if err != nil {
		return err
	}
	split, err := kron.BalancedSplitPoint(kd, service.DefaultConfig().MaxCNNZ)
	if err != nil {
		return err
	}
	g, err := replayGen(ctx, tr, root, kd, split, want, m)
	if err != nil {
		return err
	}
	if err := b.replayEncode(ctx, tr, root, g, want, m); err != nil {
		return err
	}
	return replayCore(tr, root, b.orders[:replayDesigns], m)
}

// replayEncode times the workload's encoder over the generator into a byte
// counter, through the same kron.Writer sink composition a file writer
// uses.
func (b *serveBench) replayEncode(ctx context.Context, tr *tracer, parent int, g *kron.Generator, want streamCount, m metrics) error {
	var times []float64
	for range replayRepeats {
		var cw countingWriter
		var ew kron.EdgeWriter = kron.NewTSVEdgeWriter(&cw)
		var bin *kron.BinaryEdgeWriter
		if b.format == formatDelta {
			var err error
			if bin, err = kron.NewBinaryEdgeWriter(&cw, want.edges, kron.BinaryDelta); err != nil {
				return err
			}
			ew = bin
		}
		sp := tr.begin("graphio.encode", parent)
		t0 := time.Now()
		err := kron.StreamTo(ctx, g, jobWorkers(), service.DefaultConfig().BatchSize, kron.Writer(ew))
		times = append(times, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("encoding: %w", err)
		}
		if bin != nil && (bin.Count() != want.edges || bin.Checksum() != want.checksum) {
			return fmt.Errorf("encoder wrote %d edges with checksum %#x, the job %+v", bin.Count(), uint64(bin.Checksum()), want)
		}
		if cw.n == 0 {
			return fmt.Errorf("encoder wrote no bytes")
		}
	}
	m.rate("graphio.encode_edges_per_s", float64(want.edges)/median(times), "edges/s", classEncoded)
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
