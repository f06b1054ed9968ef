// Command kronbench regenerates the data behind every figure of the paper:
//
//	-fig 1     Kronecker of two bipartite stars (degree distribution n(d)=15/d)
//	-fig 2     triangle counts for hub-/leaf-loop star products
//	-fig 3     edge-generation rate vs cores, with linear extrapolation
//	-fig 4     trillion-edge hub-loop design: exact counts + reduced-scale
//	           predicted-vs-measured validation
//	-fig 5     quadrillion-edge no-loop design (exact power law)
//	-fig 6     quadrillion-edge hub-loop design
//	-fig 7     decetta-scale (10^30 edge) leaf-loop design
//	-fig rmat  R-MAT trial-and-error baseline vs design-first workflow
//	-fig all   everything
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/plot"
	"repro/internal/rmat"
	"repro/internal/validate"
	"repro/kron"
)

var plotFigures bool

// jsonDir is non-empty when -json is set: each figure writes a
// BENCH_<name>.json snapshot there so successive commits accumulate a
// machine-readable perf trajectory.
var jsonDir string

// benchExtra collects figure-specific metrics (rates, counts) for the
// current figure's JSON snapshot; figures add to it via recordBench.
var benchExtra map[string]any

func main() {
	fs := flag.NewFlagSet("kronbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 1..7, rmat, or all")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "max worker count for rate sweeps")
	plots := fs.Bool("plot", false, "render degree distributions as ASCII log-log plots")
	jsonOut := fs.Bool("json", false, "write a BENCH_<name>.json timing snapshot per figure")
	jsonTo := fs.String("json-dir", ".", "directory for -json snapshots")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	plotFigures = *plots
	if *jsonOut {
		jsonDir = *jsonTo
	}
	stopCPU, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kronbench:", err)
		os.Exit(1)
	}
	runErr := run(*fig, *workers)
	// A profile that fails to stop or write is a lost measurement: it must
	// fail the run, not just print. The run's own error keeps priority.
	if err := stopCPU(); err != nil && runErr == nil {
		runErr = err
	}
	if err := cliutil.WriteHeapProfile(*memprofile); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "kronbench:", runErr)
		os.Exit(1)
	}
}

func run(fig string, maxWorkers int) error {
	type figFn struct {
		name string
		fn   func(int) error
	}
	all := []figFn{
		{"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
		{"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7}, {"rmat", figRMAT},
	}
	if fig == "all" {
		for _, f := range all {
			if err := runFig(f.name, f.fn, maxWorkers); err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
		}
		return nil
	}
	for _, f := range all {
		if f.name == fig || f.name == "fig"+fig {
			return runFig(f.name, f.fn, maxWorkers)
		}
	}
	return fmt.Errorf("unknown figure %q", fig)
}

// runFig times one figure and, under -json, writes BENCH_<name>.json with
// the elapsed time plus the metrics the figure recorded. A figure that
// records none writes no snapshot: its elapsed time alone is no series.
func runFig(name string, fn func(int) error, maxWorkers int) error {
	benchExtra = map[string]any{}
	start := time.Now()
	if err := fn(maxWorkers); err != nil {
		return err
	}
	if jsonDir == "" || len(benchExtra) == 0 {
		return nil
	}
	payload := map[string]any{
		"name":       name,
		"seconds":    time.Since(start).Seconds(),
		"maxWorkers": maxWorkers,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goVersion":  runtime.Version(),
	}
	for k, v := range benchExtra {
		payload[k] = v
	}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/BENCH_%s.json", jsonDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}

// recordBench adds one metric to the running figure's JSON snapshot.
func recordBench(key string, v any) {
	if benchExtra != nil {
		benchExtra[key] = v
	}
}

// recordSpread records a repeated measurement as its median under key, with
// its quartiles and repeat count under key+"Q1", key+"Q3" and
// key+"Repeats", and returns the median and quartiles.
func recordSpread(key string, xs []float64) (med, q1, q3 float64) {
	slices.Sort(xs)
	med, q1, q3 = xs[len(xs)/2], xs[len(xs)/4], xs[3*len(xs)/4]
	recordBench(key, med)
	recordBench(key+"Q1", q1)
	recordBench(key+"Q3", q3)
	recordBench(key+"Repeats", len(xs))
	return med, q1, q3
}

// measuredPoint stamps a swept rate with the scheduler width it actually ran
// under. A row swept at more workers than GOMAXPROCS is marked Extrapolated:
// np goroutines on fewer processors measure scheduling overhead, not scaling
// — recording such rows as measured is what once made the fig4 validation
// series look flat (the whole sweep had run at GOMAXPROCS=1).
func measuredPoint(np int, rate float64) parallel.ScalingPoint {
	gmp := runtime.GOMAXPROCS(0)
	return parallel.ScalingPoint{Cores: np, EdgesPerSec: rate, Gomaxprocs: gmp, Extrapolated: np > gmp}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// fig1 reproduces Figure 1: the Kronecker product of two bipartite star
// graphs and its exact n(d) = 15/d degree distribution.
func fig1(int) error {
	header("Figure 1: Kronecker product of two bipartite stars (m̂=5, m̂=3)")
	d, err := kron.FromPoints([]int{5, 3}, kron.LoopNone)
	if err != nil {
		return err
	}
	p, err := d.Compute()
	if err != nil {
		return err
	}
	fmt.Printf("product graph: %s vertices, %s edges (two bipartite sub-graphs)\n", p.Vertices, p.Edges)
	fmt.Println("degree distribution (every point on n(d) = 15/d):")
	fmt.Print(p.Degrees.Table())
	return nil
}

// fig2 reproduces Figure 2: triangle structure from self-loop placement.
func fig2(int) error {
	header("Figure 2: triangles from self-loop placement (m̂={5,3})")
	for _, mode := range []kron.LoopMode{kron.LoopHub, kron.LoopLeaf} {
		d, err := kron.FromPoints([]int{5, 3}, mode)
		if err != nil {
			return err
		}
		tri, err := d.Triangles()
		if err != nil {
			return err
		}
		r, err := kron.Validate(context.Background(), d, 1, 2)
		if err != nil {
			return err
		}
		fmt.Printf("loop=%-4s predicted triangles=%-3s measured=%-3d exact=%v\n",
			mode, tri, r.MeasuredTriangles, r.ExactAgreement)
	}
	return nil
}

// fig3 reproduces Figure 3: edge generation rate vs processor cores. The
// measured series runs the real generator at 1..maxWorkers goroutines on a
// reduced design; the modeled series extends the per-core rate linearly,
// exact for a zero-communication algorithm, up to the paper's 41,472 cores.
func fig3(maxWorkers int) error {
	header("Figure 3: edge generation rate vs processor cores")
	// Reduced design with the same code path as the paper's
	// B{3,4,5,9,16,25} ⊗ C{81,256} run: keep C = {81,256} intact, shrink B.
	d, err := kron.FromPoints([]int{3, 4, 5, 81, 256}, kron.LoopNone)
	if err != nil {
		return err
	}
	g, err := gen.New(d, 3)
	if err != nil {
		return err
	}
	// A full generation is the only shard of the one-shard plan.
	whole, err := kron.PlanShards(d, 3, 1)
	if err != nil {
		return err
	}
	full := whole[0]
	fmt.Printf("workload: %v, %d edges per full generation\n", d, g.NumEdges())
	fmt.Printf("%-8s %-14s %s\n", "cores", "edges/s", "source")
	perCore := 0.0
	var measured []parallel.ScalingPoint
	for np := 1; np <= maxWorkers; np *= 2 {
		rate, _, err := enumRate(g, np, full, nil)
		if err != nil {
			return err
		}
		if np == 1 {
			perCore = rate
		}
		pt := measuredPoint(np, rate)
		measured = append(measured, pt)
		src := "measured"
		if pt.Extrapolated {
			src = fmt.Sprintf("oversubscribed (GOMAXPROCS=%d)", pt.Gomaxprocs)
		}
		fmt.Printf("%-8d %-14.3e %s\n", np, rate, src)
	}
	recordBench("edgesPerGeneration", g.NumEdges())
	recordBench("perCoreEdgesPerSec", perCore)
	recordBench("measuredScaling", measured)

	// The enumerated sink bare and behind pipeline.Instrument: the
	// observability layer's per-run cost (two clock reads, three atomic
	// adds) measured end to end against the bare path — the overhead the
	// kronscope design budgets below 2% of streamed throughput. Bare and
	// instrumented passes run in adjacent pairs, nine of them; the overhead
	// is the median of the per-pair overheads, so drift between pairs on a
	// shared machine does not land on one side.
	instrument := func(s pipeline.Sink) pipeline.Sink {
		return pipeline.Instrument(obs.NewStageSet().Stage("bench"), s)
	}
	var bare, instr, overheads []float64
	for range 9 {
		b, _, err := enumRate(g, maxWorkers, full, nil)
		if err != nil {
			return err
		}
		in, _, err := enumRate(g, maxWorkers, full, instrument)
		if err != nil {
			return err
		}
		bare, instr = append(bare, b), append(instr, in)
		overheads = append(overheads, (b-in)/b*100)
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	bareRate, instrRate := median(bare), median(instr)
	overheadPct, overheadQ1, overheadQ3 := recordSpread("instrumentOverheadPct", overheads)
	fmt.Printf("\nenumerated sink at %d workers (same workload):\n", maxWorkers)
	fmt.Printf("%-14s %-14s\n", "path", "edges/s")
	fmt.Printf("%-14s %-14.3e\n", "bare", bareRate)
	fmt.Printf("%-14s %-14.3e (median paired overhead %+.2f%%, quartiles %+.2f%% to %+.2f%%)\n", "instrumented", instrRate, overheadPct, overheadQ1, overheadQ3)
	recordBench("batchStreamEdgesPerSec", bareRate)
	recordBench("bareSinkEdgesPerSec", bareRate)
	recordBench("instrumentedSinkEdgesPerSec", instrRate)
	model := parallel.ScalingModel{PerCoreRate: perCore}
	for _, pt := range model.Series([]int{64, 1024, 4096, 41472}) {
		fmt.Printf("%-8d %-14.3e modeled (linear, zero communication)\n", pt.Cores, pt.EdgesPerSec)
	}
	fmt.Printf("cores needed for 1e12 edges/s at this per-core rate: %d\n", model.CoresFor(1e12))

	// Shard-native generation: one process generating everything vs K=4
	// independent shard "processes" (each run here sequentially with one
	// worker, as separate OS processes would run them). Zero communication
	// means each shard runs at the full single-core rate on its slice, so
	// the shards' summed throughput is the aggregate a K-replica deployment
	// delivers; cluster.PlanCost prices the same real plan (straggler-bound)
	// instead of the idealized E/P.
	const shardProcs = 4
	plan, err := kron.PlanShards(d, 3, shardProcs)
	if err != nil {
		return err
	}
	fullRate, fullTotal, err := enumRate(g, 1, full, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nsharded generation, 1 process vs %d shard processes (1 worker each):\n", shardProcs)
	fmt.Printf("%-10s %-12s %-14s\n", "shard", "edges", "edges/s")
	fmt.Printf("%-10s %-12d %-14.3e\n", "full", fullTotal, fullRate)
	summed := 0.0
	shardEdges := make([]int64, 0, len(plan))
	for _, s := range plan {
		rate, n, err := enumRate(g, 1, s, nil)
		if err != nil {
			return err
		}
		summed += rate
		shardEdges = append(shardEdges, s.Edges)
		fmt.Printf("%d/%-8d %-12d %-14.3e\n", s.Shard, s.Shards, n, rate)
	}
	fmt.Printf("summed shard throughput: %.3e edges/s (%.2fx one process)\n", summed, summed/fullRate)
	planRep, err := cluster.PlanCost(shardEdges, cluster.Model{PerCoreRate: perCore})
	if err != nil {
		return err
	}
	fmt.Printf("PlanCost of the real %d-shard plan at the measured per-core rate: %v, %.3e edges/s (max-min %d edges/shard)\n",
		shardProcs, planRep.Time.Round(time.Microsecond), planRep.AggregateRate,
		planRep.MaxEdgesPerCore-planRep.MinEdgesPerCore)
	recordBench("shardProcesses", shardProcs)
	recordBench("fullProcessEdgesPerSec", fullRate)
	recordBench("shardSummedEdgesPerSec", summed)
	recordBench("shardSpeedup", summed/fullRate)
	recordBench("shardPlanCostEdgesPerSec", planRep.AggregateRate)

	// Wire formats, end to end: a full single-worker generation pass
	// streamed through a Writer sink per encoding, directly comparable
	// against fullRate (the enumerated sink at one worker). The KRNB path
	// fuses generation and encoding into one block frame and one run frame
	// per run; TSV formats every edge. The client half decodes one pass's
	// KRNB stream from memory, expanding every run frame from the decoded
	// block.
	tsvRate, err := benchWire(g, func(w io.Writer) (graphio.EdgeWriter, error) {
		return graphio.NewTSVEdgeWriter(w), nil
	})
	if err != nil {
		return err
	}
	newBin := func(w io.Writer) (graphio.EdgeWriter, error) { return graphio.NewBinaryEdgeWriter(w, g.NumEdges()) }
	replayRate, err := benchWire(g, newBin)
	if err != nil {
		return err
	}
	var replayed bytes.Buffer
	if err := writePass(g, newBin, &replayed); err != nil {
		return err
	}
	// Decode against the generator it expands, in adjacent pairs: a
	// single-worker enumerated pass, then one decode of the replayed
	// stream. Their ratio is the same-run bench-smoke gate, so the median
	// of five pairs tracks the decoder, not the machine's drift.
	var readRates, readRatios []float64
	for range 5 {
		count, _, err := enumRate(g, 1, full, nil)
		if err != nil {
			return err
		}
		read, err := readRate(replayed.Bytes())
		if err != nil {
			return err
		}
		readRates, readRatios = append(readRates, read), append(readRatios, read/count)
	}
	replayReadRate, _, _ := recordSpread("binDeltaReplayReadEdgesPerSec", readRates)
	readRatio, _, _ := recordSpread("replayReadToCountRatio", readRatios)
	replayBytesPerEdge := float64(replayed.Len()) / float64(g.NumEdges())
	deltaRatio := replayRate / fullRate
	fmt.Printf("\nwire-format throughput (full single-worker pass, end to end):\n")
	fmt.Printf("%-14s %-14s\n", "format", "edges/s")
	fmt.Printf("%-14s %-14.3e (generate+encode)\n", "tsv", tsvRate)
	fmt.Printf("%-14s %-14.3e (generate+encode, %.2fx enumerated count rate)\n", "bin/replay", replayRate, deltaRatio)
	fmt.Printf("%-14s %-14.3e (decode, median %.2fx the adjacent enumerated pass; %.4f bytes/edge)\n", "bin/replay read", replayReadRate, readRatio, replayBytesPerEdge)
	recordBench("tsvWireEdgesPerSec", tsvRate)
	recordBench("deltaReplayWireEdgesPerSec", replayRate)
	recordBench("deltaWireToCountRatio", deltaRatio)
	recordBench("replayBytesPerEdge", replayBytesPerEdge)
	// Each wire series is recorded with the parallelism and batch size it
	// ran at (the fig4 post-mortem: unlabeled recordings mislead): every
	// series, encode and decode, carries runs of at most DefaultBatchSize
	// edges.
	gmp := runtime.GOMAXPROCS(0)
	replayBatch := min(g.CNNZ(), gen.DefaultBatchSize)
	recordBench("wireSeries", []wireSeries{
		{Series: "tsv", EdgesPerSec: tsvRate, Gomaxprocs: gmp, BatchEdges: replayBatch},
		{Series: "binDeltaReplay", EdgesPerSec: replayRate, Gomaxprocs: gmp, BatchEdges: replayBatch},
		{Series: "binDeltaReplayRead", EdgesPerSec: replayReadRate, Gomaxprocs: gmp, BatchEdges: replayBatch},
	})

	// Full-machine simulation of the paper's actual trillion-edge workload
	// (B = {3,4,5,9,16,25}: 13,824,000 triples; C = {81,256}: 82,944),
	// using the measured per-core rate and per-triple load balancing.
	fmt.Println("\nsimulated 648-node × 64-core machine on the paper's trillion-edge workload:")
	reports, err := cluster.Sweep(13824000, 82944, false,
		cluster.Model{PerCoreRate: perCore}, cluster.MITSuperCloud())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %-12s %s\n", "cores", "edges/s", "time", "max-min edges/core")
	for _, r := range reports {
		fmt.Printf("%-8d %-14.3e %-12v %d\n",
			r.Cores, r.AggregateRate, r.Time.Round(time.Microsecond),
			r.MaxEdgesPerCore-r.MinEdgesPerCore)
	}
	return nil
}

// edgeFold is one worker's enumerated count and XOR checksum, padded so
// workers never share a cache line.
type edgeFold struct {
	n, sum int64
	_      [48]byte
}

// enumRate times one pass over shard s with np workers into a Func that
// reads every edge and folds count plus XOR checksum — the per-edge work of
// an enumerated count, where the Counter and Checksum sinks fold each run in
// closed form. wrap, when non-nil, wraps that sink. It returns the rate and
// the edges counted.
func enumRate(g *gen.Generator, np int, s gen.ShardInfo, wrap func(pipeline.Sink) pipeline.Sink) (float64, int64, error) {
	folds := make([]edgeFold, np)
	var sink pipeline.Sink = pipeline.Func(func(p int, batch []gen.Edge) error {
		f := &folds[p]
		n, sum := f.n, f.sum
		for _, e := range batch {
			n++
			sum ^= e.Row*31 + e.Col
		}
		f.n, f.sum = n, sum
		return nil
	})
	if wrap != nil {
		sink = wrap(sink)
	}
	start := time.Now()
	if err := g.StreamShardTo(context.Background(), s, np, 0, sink); err != nil {
		return 0, 0, err
	}
	secs := time.Since(start).Seconds()
	var n int64
	for i := range folds {
		n += folds[i].n
	}
	return float64(n) / secs, n, nil
}

// readRate times one decode of a KRNB stream from memory: ReadBinary
// decodes and verifies data against its trailer.
func readRate(data []byte) (float64, error) {
	start := time.Now()
	info, err := graphio.ReadBinary(context.Background(), bytes.NewReader(data), func([]gen.Edge) error { return nil })
	if err != nil {
		return 0, err
	}
	return float64(info.Edges) / time.Since(start).Seconds(), nil
}

// wireSeries is one wire-format throughput recording with the conditions it
// ran under: the GOMAXPROCS in effect and the most edges crossing the
// encoder per call.
type wireSeries struct {
	Series      string  `json:"series"`
	EdgesPerSec float64 `json:"edgesPerSec"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	BatchEdges  int     `json:"batchEdges"`
}

// writePass streams one single-worker generation pass of g through a
// Writer sink over the edge writer newWriter builds on w.
func writePass(g *gen.Generator, newWriter func(io.Writer) (graphio.EdgeWriter, error), w io.Writer) error {
	ew, err := newWriter(w)
	if err != nil {
		return err
	}
	return g.StreamTo(context.Background(), 1, 0, pipeline.Writer(ew))
}

// benchWire measures an edge writer end to end: single-worker generation
// passes streamed through a Writer sink into io.Discard, repeated until
// enough wall clock has elapsed, after one unmeasured warm-up pass. Each
// pass builds a fresh writer (the KRNB trailer ends a stream), which costs
// one header, block frame and trailer per full graph — noise at this scale.
func benchWire(g *gen.Generator, newWriter func(io.Writer) (graphio.EdgeWriter, error)) (float64, error) {
	const minDur = 300 * time.Millisecond
	if err := writePass(g, newWriter, io.Discard); err != nil {
		return 0, err
	}
	var n int64
	start := time.Now()
	for time.Since(start) < minDur {
		if err := writePass(g, newWriter, io.Discard); err != nil {
			return 0, err
		}
		n += g.NumEdges()
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// fig4 reproduces Figure 4: the trillion-edge hub-loop design's exact
// properties, plus an exact predicted-vs-measured validation on a reduced
// design exercising the identical code path.
func fig4(maxWorkers int) error {
	header("Figure 4: trillion-edge hub-loop Kronecker graph")
	d, err := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
	if err != nil {
		return err
	}
	p, err := d.Compute()
	if err != nil {
		return err
	}
	fmt.Print(p.Report())
	fmt.Println("(paper: 11,177,649,600 vertices, 1,853,002,140,758 edges, 6,777,007,252,427 triangles)")

	small, err := kron.FromPoints([]int{3, 4, 5, 9}, kron.LoopHub)
	if err != nil {
		return err
	}
	r, err := kron.Validate(context.Background(), small, 2, maxWorkers)
	if err != nil {
		return err
	}
	fmt.Println("reduced-scale validation (same code path):")
	fmt.Print(r)

	// Validation-throughput benchmark: edges measured per second through
	// the full predicted-vs-measured pipeline (generate, degree-merge, CSR,
	// both triangle counters) on a larger hub-loop workload. The streaming
	// engine is compared against the materialized sort-and-dedupe baseline
	// at one worker in adjacent pairs, so drift on a shared machine lands on
	// both sides of each pair's ratio; the speedup is the median ratio. Then
	// the streaming engine is swept across worker counts.
	bd, err := kron.FromPoints([]int{3, 4, 5, 9, 16}, kron.LoopHub)
	if err != nil {
		return err
	}
	const benchSplit = 3
	var matRates, streamRates, speedups []float64
	var mrep, srep *validate.Report
	for range benchPairs {
		var matRate, streamRate float64
		if mrep, matRate, err = validationRate(validate.RunMaterialized, bd, benchSplit, 1); err != nil {
			return err
		}
		if srep, streamRate, err = validationRate(validate.Run, bd, benchSplit, 1); err != nil {
			return err
		}
		matRates, streamRates = append(matRates, matRate), append(streamRates, streamRate)
		speedups = append(speedups, streamRate/matRate)
	}
	matRate, _, _ := recordSpread("materializedEdgesPerSec", matRates)
	singleRate, _, _ := recordSpread("streamingEdgesPerSec", streamRates)
	speedup, q1, q3 := recordSpread("validationSpeedup", speedups)
	fmt.Printf("\nvalidation throughput, %d-edge hub workload %v (medians of %d pairs):\n", mrep.MeasuredEdges, bd, benchPairs)
	fmt.Printf("%-24s %-10s %-14s %s\n", "engine", "workers", "edges/s", "exact")
	fmt.Printf("%-24s %-10d %-14.3e %v\n", "materialized (baseline)", 1, matRate, mrep.ExactAgreement)
	fmt.Printf("%-24s %-10d %-14.3e %v\n", "streaming", 1, singleRate, srep.ExactAgreement)
	valScaling := []parallel.ScalingPoint{measuredPoint(1, singleRate)}
	for np := 2; np <= maxWorkers; np *= 2 {
		rep, rate, err := validationRate(validate.Run, bd, benchSplit, np)
		if err != nil {
			return err
		}
		pt := measuredPoint(np, rate)
		valScaling = append(valScaling, pt)
		engine := "streaming"
		if pt.Extrapolated {
			engine = "streaming (oversub)"
		}
		fmt.Printf("%-24s %-10d %-14.3e %v\n", engine, np, rate, rep.ExactAgreement)
	}
	fmt.Printf("single-worker streaming vs materialized: %.2fx (quartiles %.2f–%.2fx)\n", speedup, q1, q3)
	recordBench("validationEdges", mrep.MeasuredEdges)
	recordBench("streamingScaling", valScaling)
	recordBench("maxRealizableEdges", int64(validate.MaxRealizableEdges))

	// Shard-native validation: one process measuring the whole design vs K=4
	// independent shard measurements, each run here sequentially with one
	// worker, as separate OS processes would run them (the fig3 sharded-
	// generation protocol applied to validation). Per-shard cost is the
	// shard's edge share and excludes triangles, so the comparable
	// single-process row is the K=1 plan's shard — the same measurement
	// passes over the whole stream. The summed shard throughput is the
	// aggregate a K-replica deployment delivers, and the speedup is the
	// median over benchPairs repeats of the whole comparison; the merge,
	// timed separately, is the coordinator's one-time cost to fold the
	// fragments into the design-level exact report.
	const valShards = 4
	vplan, err := kron.PlanShards(bd, benchSplit, valShards)
	if err != nil {
		return err
	}
	fullPlan, err := kron.PlanShards(bd, benchSplit, 1)
	if err != nil {
		return err
	}
	var fullRates, summedRates, shardSpeedups []float64
	reports := make([]*kron.ShardValidation, len(vplan))
	for range benchPairs {
		_, fullRate, err := shardRate(bd, benchSplit, fullPlan[0])
		if err != nil {
			return err
		}
		summed := 0.0
		for i, s := range vplan {
			sr, rate, err := shardRate(bd, benchSplit, s)
			if err != nil {
				return err
			}
			summed += rate
			reports[i] = sr
		}
		fullRates, summedRates = append(fullRates, fullRate), append(summedRates, summed)
		shardSpeedups = append(shardSpeedups, summed/fullRate)
	}
	start := time.Now()
	merged, err := kron.MergeValidation(context.Background(), reports, maxWorkers)
	if err != nil {
		return err
	}
	mergeDur := time.Since(start)
	fullRate, _, _ := recordSpread("shardValidationFullEdgesPerSec", fullRates)
	summedRate, _, _ := recordSpread("shardValidationSummedEdgesPerSec", summedRates)
	shardSpeedup, q1, q3 := recordSpread("shardValidationSpeedup", shardSpeedups)
	fmt.Printf("\nsharded validation, 1 process vs %d shard processes (1 worker each, no triangles, medians of %d repeats):\n",
		valShards, benchPairs)
	fmt.Printf("one process: %.3e edges/s; summed shards: %.3e edges/s (%.2fx, quartiles %.2f–%.2fx)\n",
		fullRate, summedRate, shardSpeedup, q1, q3)
	fmt.Printf("merge + design-level triangles: %v, exact=%v\n", mergeDur.Round(time.Microsecond), merged.ExactAgreement)
	recordBench("shardValidationShards", valShards)
	recordBench("shardValidationMergeSeconds", mergeDur.Seconds())
	recordBench("shardValidationExact", merged.ExactAgreement)
	return nil
}

// benchPairs is how many times fig4 repeats each comparison its gated
// ratios come from; each ratio is recorded as the median of its repeats.
const benchPairs = 5

// validationRate times one validation of d by run and returns its report
// and the edges it measured per second.
func validationRate(run func(context.Context, *kron.Design, int, int) (*validate.Report, error),
	d *kron.Design, nb, np int) (*validate.Report, float64, error) {
	start := time.Now()
	r, err := run(context.Background(), d, nb, np)
	if err != nil {
		return nil, 0, err
	}
	return r, float64(r.MeasuredEdges) / time.Since(start).Seconds(), nil
}

// shardRate times one single-worker validation of shard s of d and returns
// its report and the edges it measured per second.
func shardRate(d *kron.Design, nb int, s kron.ShardInfo) (*kron.ShardValidation, float64, error) {
	start := time.Now()
	r, err := kron.ValidateShard(context.Background(), d, nb, 1, s)
	if err != nil {
		return nil, 0, err
	}
	return r, float64(r.MeasuredEdges) / time.Since(start).Seconds(), nil
}

func fig5(int) error {
	header("Figure 5: quadrillion-edge no-loop design")
	return designSummary([]int{3, 4, 5, 9, 16, 25, 81, 256, 625}, kron.LoopNone,
		"paper: 6,997,208,649,600 vertices, 1,433,272,320,000,000 edges, 0 triangles")
}

func fig6(int) error {
	header("Figure 6: quadrillion-edge hub-loop design")
	return designSummary([]int{3, 4, 5, 9, 16, 25, 81, 256, 625}, kron.LoopHub,
		"paper: 2,318,105,678,089,508 edges, 12,720,651,636,552,426 triangles (formula gives ...427; see EXPERIMENTS.md)")
}

func fig7(int) error {
	header("Figure 7: decetta-scale (10^30 edge) leaf-loop design")
	return designSummary(
		[]int{3, 4, 5, 7, 11, 9, 16, 25, 49, 81, 121, 256, 625, 2401, 14641},
		kron.LoopLeaf,
		"paper: 144,111,718,793,178,936,483,840,000 vertices, 2,705,963,586,782,877,716,483,871,216,764 edges, 178,940,587 triangles, computed in 'a few minutes on a laptop'")
}

// designRepeats is how many times each of figures 5–7 times Design.Compute.
const designRepeats = 21

// designSeries is a figure's closed-form computation, measured: the wall
// time of Design.Compute over Repeats calls, as a median and quartiles.
type designSeries struct {
	Series          string  `json:"series"`
	Class           string  `json:"class"`
	Repeats         int     `json:"repeats"`
	MedianMs        float64 `json:"medianMs"`
	Q1Ms            float64 `json:"q1Ms"`
	Q3Ms            float64 `json:"q3Ms"`
	DistinctDegrees int     `json:"distinctDegrees"`
	Gomaxprocs      int     `json:"gomaxprocs"`
}

func designSummary(points []int, loop kron.LoopMode, note string) error {
	d, err := kron.FromPoints(points, loop)
	if err != nil {
		return err
	}
	var p *kron.Properties
	ms := make([]float64, designRepeats)
	for i := range ms {
		start := time.Now()
		if p, err = d.Compute(); err != nil {
			return err
		}
		ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	slices.Sort(ms)
	s := designSeries{
		Series: "designCompute", Class: "closed-form", Repeats: len(ms),
		MedianMs: ms[len(ms)/2], Q1Ms: ms[len(ms)/4], Q3Ms: ms[3*len(ms)/4],
		DistinctDegrees: p.Degrees.Len(), Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	recordBench("computeSeries", s)
	fmt.Print(p.Report())
	dev, err := p.Degrees.PowerLawDeviation()
	if err != nil {
		return err
	}
	fmt.Printf("max power-law deviation (log space): %.4g\n", dev)
	fmt.Printf("Design.Compute: median %.3g ms (quartiles %.3g–%.3g ms) over %d repeats\n",
		s.MedianMs, s.Q1Ms, s.Q3Ms, s.Repeats)
	fmt.Println(note)
	if plotFigures {
		rendered, err := plot.LogLog(p.Degrees, plot.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Print(rendered)
	}
	return nil
}

// figRMAT contrasts the R-MAT trial-and-error workflow with design-first.
func figRMAT(maxWorkers int) error {
	header("Baseline: R-MAT trial-and-error vs Kronecker design-first")
	base := rmat.Graph500(14, 8, 7)
	target := int64(180000)
	start := time.Now()
	trials, err := rmat.TrialAndError(base, target, 0.05, 10, maxWorkers)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	fmt.Printf("R-MAT: target %d unique edges, tolerance 5%%\n", target)
	fmt.Printf("%-6s %-11s %-13s %-12s %-11s %s\n",
		"trial", "edgefactor", "unique edges", "self-loops", "duplicates", "empty vertices")
	for i, tr := range trials {
		fmt.Printf("%-6d %-11d %-13d %-12d %-11d %d\n",
			i+1, tr.Params.EdgeFactor, tr.Measured.UniqueEdges,
			tr.Measured.SelfLoops, tr.Measured.DuplicateSamples, tr.Measured.EmptyVertices)
	}
	fmt.Printf("R-MAT needed %d generate-and-measure trials (%v) to land near its target.\n",
		len(trials), dur)
	var sampled int64
	for _, tr := range trials {
		sampled += tr.Params.NumSampledEdges()
	}
	rate := float64(sampled) / dur.Seconds()
	fmt.Printf("R-MAT sampled %d edges across the loop: %.3e edges/s\n", sampled, rate)
	recordBench("sampledEdges", sampled)
	recordBench("edgesPerSec", rate)

	start = time.Now()
	d, err := kron.FromPoints([]int{3, 4, 5, 9, 16, 25, 81, 256}, kron.LoopHub)
	if err != nil {
		return err
	}
	p, err := d.Compute()
	if err != nil {
		return err
	}
	fmt.Printf("Designer: exact properties of a %s-edge graph in %v, zero generations:\n",
		p.Edges, time.Since(start))
	fmt.Print(p.Report())
	return nil
}
