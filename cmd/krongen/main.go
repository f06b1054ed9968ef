// Command krongen generates a designed Kronecker graph in parallel with no
// inter-worker communication (Section V) and either reports the generation
// rate, streams one edge chunk per worker through the batch-native path
// (TSV by default; -format bin/binfixed for the KRNB binary wire format,
// whose trailer carries the chunk's edge count and XOR checksum), or
// materializes one edge-list chunk per worker.
//
// Usage:
//
//	krongen -mhat 3,4,5,9,16 -loop hub -split 3 -workers 4 -count
//	krongen -mhat 3,4,5 -loop none -split 2 -workers 2 -stream /tmp/graph
//	krongen -mhat 3,4,5 -loop none -split 2 -stream /tmp/graph -format bin
//	krongen -mhat 3,4,5 -loop none -split 2 -workers 2 -out /tmp/graph
//
// With -shard k/K the process generates only shard k of the deterministic
// K-shard plan — run K krongen processes (one per shard, any machines, no
// coordination) and concatenate their chunks to reassemble the full graph:
//
//	krongen -mhat 3,4,5 -loop hub -split 2 -shard 0/3 -stream /tmp/s0
//	krongen -mhat 3,4,5 -loop hub -split 2 -shard 1/3 -stream /tmp/s1
//	krongen -mhat 3,4,5 -loop hub -split 2 -shard 2/3 -stream /tmp/s2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/kron"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "krongen:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("krongen", flag.ContinueOnError)
	mhat := fs.String("mhat", "", "comma-separated star sizes m̂")
	loop := fs.String("loop", "none", "self-loop mode: none, hub, or leaf")
	split := fs.Int("split", 1, "number of leading factors forming the B side of A = B ⊗ C")
	workers := fs.Int("workers", 1, "parallel workers (simulated processors)")
	count := fs.Bool("count", false, "stream-generate and report the edge rate instead of storing")
	out := fs.String("out", "", "directory to write per-worker edge chunks (prefix 'edges')")
	stream := fs.String("stream", "", "directory to stream per-worker edge chunks through the batch-native path (never materializes)")
	format := fs.String("format", "tsv", "-stream chunk format: tsv, bin (binary delta-varint), or binfixed (binary fixed-width)")
	shardSpec := fs.String("shard", "", "generate only shard k of the deterministic K-shard plan, as k/K (e.g. 0/4); applies to -count and -stream")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopCPU, err := cliutil.StartCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	// A profile that fails to stop or write is a lost measurement; surface it
	// in the exit status (the run's own error keeps priority) instead of only
	// printing it.
	defer func() {
		if perr := stopCPU(); perr != nil && err == nil {
			err = perr
		}
		if perr := cliutil.WriteHeapProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}()
	points, err := cliutil.ParsePoints(*mhat)
	if err != nil {
		return err
	}
	mode, err := kron.ParseLoopMode(*loop)
	if err != nil {
		return err
	}
	d, err := kron.FromPoints(points, mode)
	if err != nil {
		return err
	}
	g, err := gen.New(d, *split)
	if err != nil {
		return err
	}
	fmt.Printf("design: %v — %d vertices, %d edges, nnz(B)=%d, nnz(C)=%d\n",
		d, g.NumVertices(), g.NumEdges(), g.BNNZ(), g.CNNZ())

	if *format != "tsv" && *stream == "" {
		return fmt.Errorf("-format applies to -stream only")
	}
	var shard *gen.ShardInfo
	if *shardSpec != "" {
		k, total, err := parseShard(*shardSpec)
		if err != nil {
			return err
		}
		plan, err := g.PlanShards(total)
		if err != nil {
			return err
		}
		shard = &plan[k]
		fmt.Printf("shard %d/%d: B triples [%d, %d), %d edges\n",
			shard.Shard, shard.Shards, shard.BLo, shard.BHi, shard.Edges)
	}

	if *count {
		start := time.Now()
		var total, checksum int64
		if shard != nil {
			total, checksum, err = g.CountShard(context.Background(), *shard, *workers)
		} else {
			total, checksum, err = g.CountEdges(context.Background(), *workers)
		}
		if err != nil {
			return err
		}
		dur := time.Since(start)
		rate := float64(total) / dur.Seconds()
		// Count and checksum fold each run in closed form, so the rate is
		// the generation loop's, not a per-edge enumeration's.
		fmt.Printf("generated %d edges in %v with %d workers: %.3e edges/s closed-form (checksum %x)\n",
			total, dur, *workers, rate, checksum)
		return nil
	}
	if *stream != "" {
		return streamChunks(g, shard, *workers, *stream, *format)
	}
	if shard != nil {
		return fmt.Errorf("-shard supports -count and -stream only (materializing per-worker parts is plan-oblivious)")
	}
	if *out == "" {
		return fmt.Errorf("choose -count, -stream DIR, or -out DIR")
	}
	parts, err := g.Materialize(context.Background(), *workers)
	if err != nil {
		return err
	}
	// Re-express each part with global columns for self-contained chunks.
	global := make([]*sparse.COO[int64], len(parts))
	for i, p := range parts {
		one, err := g.Assemble([]gen.Part{p})
		if err != nil {
			return err
		}
		global[i] = one
	}
	paths, err := graphio.WriteChunks(*out, "edges", global)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d chunks under %s\n", len(paths), *out)
	return nil
}

// parseShard parses a "k/K" shard spec into its index and total. Both
// halves must be complete integers — trailing garbage ("1/2x", "1/2/8")
// would silently generate the wrong slice and corrupt the reassembled
// graph, so it is rejected, not ignored.
func parseShard(spec string) (k, total int, err error) {
	lo, hi, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/K (e.g. 0/4)", spec)
	}
	if k, err = strconv.Atoi(lo); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %v", spec, err)
	}
	if total, err = strconv.Atoi(hi); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %v", spec, err)
	}
	if total < 1 || k < 0 || k >= total {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 ≤ k < K", spec)
	}
	return k, total, nil
}

// streamChunks writes one edge chunk per worker through the pipeline layer —
// or, with a shard, streams exactly this process's slice of the
// deterministic plan. Each worker owns its file via a PerWorker-routed
// Writer sink, and a Counter rides the same Tee, so the reported edge total
// is measured from the one generation pass that wrote the chunks; the graph
// is never materialized and no state is shared between workers. Binary
// chunks get their end-of-stream trailer (count + XOR checksum) from the
// stream pass's sink Close, which finishes each writer; with one worker the
// chunk's header also carries the design-time exact edge count, so the file
// is verifiable on its own (kronvalidate -in).
func streamChunks(g *gen.Generator, shard *gen.ShardInfo, workers int, dir, format string) error {
	var enc graphio.BinaryEncoding
	binary := true
	switch format {
	case "tsv":
		binary = false
	case "bin":
		enc = graphio.BinaryDelta
	case "binfixed":
		enc = graphio.BinaryFixed
	default:
		return fmt.Errorf("unknown -format %q (want tsv, bin, or binfixed)", format)
	}
	// A multi-worker chunk covers an unpredictable share of the stream, so
	// its header omits nnz; a single chunk is the whole (shard's) stream,
	// whose exact count is known before generation.
	chunkNNZ := int64(-1)
	if workers == 1 {
		if shard != nil {
			chunkNNZ = shard.Edges
		} else {
			chunkNNZ = g.NumEdges()
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := make([]*os.File, workers)
	// Error-path cleanup only: the success path closes each file once, with
	// the error checked, and nils its slot.
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	sinks := make([]pipeline.Sink, workers)
	for p := range files {
		ext := "tsv"
		if binary {
			ext = "bin"
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("edges_%04d.%s", p, ext)))
		if err != nil {
			return err
		}
		files[p] = f
		if binary {
			ew, err := graphio.NewBinaryEdgeWriter(f, chunkNNZ, enc)
			if err != nil {
				return err
			}
			sinks[p] = pipeline.Writer(ew)
		} else {
			sinks[p] = pipeline.Writer(graphio.NewTSVEdgeWriter(f))
		}
	}
	counter := pipeline.NewCounter(workers)
	// With -format bin (delta) every member of this composition is
	// block-capable — the delta writers replay cached block bytes, the
	// counter folds closed-form counts — so the stream pass runs the
	// generator's block-replay engine; tsv and binfixed keep their own batch
	// fast paths and route the tee through batches.
	sink := pipeline.Tee(pipeline.PerWorker(sinks...), counter)
	start := time.Now()
	var err error
	if shard != nil {
		err = g.StreamShardTo(context.Background(), *shard, workers, 0, sink)
	} else {
		err = g.StreamTo(context.Background(), workers, 0, sink)
	}
	if err != nil {
		return err
	}
	for p := range files {
		// The stream pass closed the sink, flushing every writer; only the
		// files remain to close.
		if err := files[p].Close(); err != nil {
			return err
		}
		files[p] = nil
	}
	dur := time.Since(start)
	edges := counter.Total()
	fmt.Printf("streamed %d edges to %d chunks under %s in %v (%.3e edges/s)\n",
		edges, workers, dir, dur, float64(edges)/dur.Seconds())
	return nil
}
