package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// runConfig is one run's settings.
type runConfig struct {
	seed    uint64
	measure time.Duration
	traced  bool
	// smoke swaps every workload's designs for tiny ones, for the harness
	// self-tests.
	smoke bool
}

const (
	// setupRepeats is how many times a run brings a fresh system up;
	// setup_s is the median.
	setupRepeats = 5
	// opTimeout bounds one op.
	opTimeout = 60 * time.Second
	// keptFailures bounds the failure messages a result keeps.
	keptFailures = 8
	// printedInputs bounds the bytes of inputs the report prints.
	printedInputs = 400
	// seedStream separates this benchmark's random stream from other users
	// of the same seed.
	seedStream = 0x6b726f6e70657266
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// edgeClass is the counting class of the workload's edges_per_s, ""
	// when its ops deliver no edges.
	edgeClass string
	// prepare draws the run's inputs from the seed and computes what every
	// op must return. It is not part of setup_s.
	prepare func(rng *rand.Rand, smoke bool) (bench, error)
}

// bench is a workload's prepared run.
type bench interface {
	// setUp brings up a fresh system and completes one unmeasured warm-up
	// op; tearDown stops it and may be called at any time.
	setUp(ctx context.Context) error
	tearDown()
	// op runs and verifies op i of the closed loop.
	op(ctx context.Context, i int, tr *tracer) (opResult, error)
	// scrape reads the service's /metrics; nil when the workload runs no
	// service.
	scrape(ctx context.Context) (map[string]float64, error)
	// layers (traced runs) replays the layer calls behind the ops in
	// isolation, checks that the replays reproduce the ops, and records
	// the per-layer metrics.
	layers(ctx context.Context, tr *tracer, m metrics) error
	// inputs describes the designs the run draws.
	inputs() any
}

// opResult is what one verified op delivered.
type opResult struct {
	edges int64
	// firstEdge is the time from job submission to the first decoded edge.
	firstEdge time.Duration
	// Streaming ops also report the body's bytes and the time from request
	// to end of body; in traced runs, the time blocked in socket reads and
	// the delta decoder's time less those reads.
	wireBytes  int64
	streamTime time.Duration
	readWait   time.Duration
	decode     time.Duration
}

// env labels a result with the conditions it was measured under.
type env struct {
	Gomaxprocs int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	JobWorkers int    `json:"job_workers"`
	BatchSize  int    `json:"batch_size"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// jobWorkers is the generation worker count of every job and validation.
func jobWorkers() int { return runtime.NumCPU() }

func currentEnv() env {
	return env{
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		JobWorkers: jobWorkers(),
		BatchSize:  service.DefaultConfig().BatchSize,
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// result is one run's record.
type result struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Env       env      `json:"env"`
	Inputs    any      `json:"inputs"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
	Spans     []span   `json:"spans,omitempty"`
}

func (r *result) fail(msg string) {
	r.Correct = false
	if len(r.Failures) < keptFailures {
		r.Failures = append(r.Failures, msg)
	}
}

// run prepares the workload, sets it up, drives the closed loop for
// cfg.measure, and (traced runs) measures the layers.
func run(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	b, err := w.prepare(newRand(cfg.seed), cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("preparing %s: %w", w.name, err)
	}
	res := &result{Workload: w.name, Why: w.why, Seed: cfg.seed, Traced: cfg.traced,
		Env: currentEnv(), Inputs: b.inputs(), Correct: true, Metrics: metrics{}}

	defer b.tearDown()
	setups := make([]float64, 0, setupRepeats)
	for range setupRepeats {
		b.tearDown()
		t0 := time.Now()
		if err := b.setUp(ctx); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Metrics.set("setup_s", median(setups), "s")

	var tr *tracer
	var before counters
	if cfg.traced {
		tr = newTracer()
		if before, err = readCounters(ctx, b); err != nil {
			return nil, err
		}
	}

	var lat, firsts []float64
	var ops []opResult
	var edges int64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.measure; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr.setOp(i)
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		t0 := time.Now()
		r, err := b.op(opCtx, i, tr)
		d := time.Since(t0)
		cancel()
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail(fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		lat = append(lat, msOf(d))
		if r.firstEdge > 0 {
			firsts = append(firsts, msOf(r.firstEdge))
		}
		edges += r.edges
		ops = append(ops, r)
	}
	wall := time.Since(start)
	tr.setOp(-1)

	prefix := ""
	if cfg.traced {
		prefix = "traced."
	}
	m := res.Metrics
	m.set(prefix+"ops_per_s", float64(len(lat))/wall.Seconds(), "1/s")
	m.set(prefix+"op_p50_ms", median(lat), "ms")
	v, pct, beyond := tail(lat)
	m[prefix+"op_tail_ms"] = measured{Value: v, Unit: "ms",
		Note: fmt.Sprintf("p%.1f of %d ops, %d beyond", pct, len(lat), beyond)}
	m.rate(prefix+"edges_per_s", float64(edges)/wall.Seconds(), "edges/s", w.edgeClass)
	m.set(prefix+"first_edge_p50_ms", median(firsts), "ms")
	m.set("fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")

	if cfg.traced {
		for _, d := range perLayerMetrics {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = measured{Unit: d.Unit, Note: "not on this workload's path"}
			}
		}
		after, err := readCounters(ctx, b)
		if err != nil {
			return nil, err
		}
		opLayers(m, tr, ops, before, after)
		if err := b.layers(ctx, tr, m); err != nil {
			res.fail("layer replay: " + err.Error())
		}
		res.Spans = tr.spans
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, "MB")
	return res, nil
}

// newRand returns the random stream every input of a run is drawn from.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seedStream)) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counters is a snapshot of the counters the program keeps: the pipeline
// stage registry and, when a service runs, its /metrics series.
type counters struct {
	stages map[string]obs.StageSnapshot
	series map[string]float64
}

func readCounters(ctx context.Context, b bench) (counters, error) {
	c := counters{stages: make(map[string]obs.StageSnapshot)}
	for _, s := range obs.Stages.Snapshot() {
		c.stages[s.Name] = s
	}
	series, err := b.scrape(ctx)
	if err != nil {
		return c, fmt.Errorf("scraping /metrics: %w", err)
	}
	c.series = series
	return c, nil
}

// opLayers records the per-layer metrics the timed ops themselves yield:
// span self times and round trips, what the client measured while reading
// each stream, and the deltas of the program's counters over the loop.
func opLayers(m metrics, tr *tracer, ops []opResult, before, after counters) {
	n := float64(max(len(ops), 1))
	self := tr.selfSeconds()
	for _, layer := range []string{"client", "service", "graphio", "validate"} {
		m.set("self."+layer+"_ms", 1e3*self[layer]/n, "ms")
	}
	for name, spanName := range map[string]string{
		"service.submit_ms":     "service.submit",
		"service.first_byte_ms": "service.first_byte",
		"service.status_ms":     "service.status",
		"service.design_ms":     "service.design",
	} {
		if ds := tr.durationsMS(spanName); len(ds) > 0 {
			m.set(name, median(ds), "ms")
		}
	}

	var bytes, edges int64
	var stream, wait, decode time.Duration
	for _, r := range ops {
		bytes += r.wireBytes
		edges += r.edges
		stream += r.streamTime
		wait += r.readWait
		decode += r.decode
	}
	if bytes > 0 {
		m.set("service.read_wait_s", wait.Seconds()/n, "s")
		m.rate("service.wire_bytes_per_s", float64(bytes)/stream.Seconds(), "B/s", classDelivered)
		m.set("graphio.bytes_per_edge", float64(bytes)/float64(edges), "B/edge")
	}
	if decode > 0 {
		m.set("graphio.decode_s", decode.Seconds()/n, "s")
	}

	for _, st := range []struct {
		stage, prefix string
		edges         bool
	}{
		{"service_progress", "pipeline.progress", true},
		{"service_checksum", "pipeline.checksum", true},
		{"service_stream", "pipeline.stream", true},
		{"validate_tally", "validate.tally", false},
		{"validate_scatter", "validate.scatter", false},
	} {
		a, b := after.stages[st.stage], before.stages[st.stage]
		if a.Batches == b.Batches {
			continue
		}
		m.set(st.prefix+"_batches", float64(a.Batches-b.Batches)/n, "count")
		m.set(st.prefix+"_busy_s", (a.Busy-b.Busy).Seconds()/n, "s")
		if st.edges {
			m.set(st.prefix+"_edges", float64(a.Edges-b.Edges)/n, "count")
		}
	}

	delta := func(name string) float64 { return after.series[name] - before.series[name] }
	if hits, misses := delta("kronserve_design_cache_hits_total"), delta("kronserve_design_cache_misses_total"); hits+misses > 0 {
		m.set("service.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	if jobs := delta("kronserve_job_queue_wait_seconds_count"); jobs > 0 {
		m.set("service.queue_wait_s", delta("kronserve_job_queue_wait_seconds_sum")/jobs, "s")
	}
}

// print writes the human-readable report: labels, then every metric by
// name with its unit and, for rates, its counting class.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "kronperf workload=%s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(w, "why: %s\n", r.Why)
	e := r.Env
	fmt.Fprintf(w, "env: gomaxprocs=%d nproc=%d job_workers=%d batch_size=%d go=%s commit=%s\n",
		e.Gomaxprocs, e.Nproc, e.JobWorkers, e.BatchSize, e.GoVersion, e.Commit)
	if in, err := json.Marshal(r.Inputs); err == nil {
		if len(in) > printedInputs {
			in = append(in[:printedInputs:printedInputs], "... (all of them in the result file)"...)
		}
		fmt.Fprintf(w, "inputs: %s\n", in)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s", name, v.Value, v.Unit)
		if v.Class != "" {
			fmt.Fprintf(w, " [%s]", v.Class)
		}
		if v.Note != "" {
			fmt.Fprintf(w, " (%s)", v.Note)
		}
		fmt.Fprintln(w)
	}
}

// save writes the result, spans included, as JSON under dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	trace := 0
	if r.Traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
	return os.WriteFile(path, data, 0o644)
}
