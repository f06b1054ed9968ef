// Command krongen generates a designed Kronecker graph in parallel with no
// inter-worker communication (Section V) and either reports the generation
// rate or streams one edge chunk per worker, edges_<pppp>.tsv (-format tsv,
// the default) or edges_<pppp>.bin (-format bin: the KRNB binary wire
// format, whose trailer carries the chunk's edge count and XOR checksum).
// The graph is never materialized.
//
// Usage:
//
//	krongen -mhat 3,4,5,9,16 -loop hub -split 3 -workers 4 -count
//	krongen -mhat 3,4,5 -loop none -split 2 -workers 2 -stream /tmp/graph
//	krongen -mhat 3,4,5 -loop none -split 2 -stream /tmp/graph -format bin
//
// A run generates one shard of a deterministic plan: without -shard, the
// only shard of the one-shard plan; with -shard k/K (K ≤ 65536), shard k of
// the K-shard plan — run K krongen processes (one per shard, any machines,
// no coordination) and concatenate their chunks to reassemble the full
// graph:
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
	"time"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
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
	stream := fs.String("stream", "", "directory to stream per-worker edge chunks into, edges_<pppp>.tsv or .bin (never materializes)")
	format := fs.String("format", "tsv", "-stream chunk format: tsv or bin (KRNB binary)")
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
	// An unsharded run is the only shard of the one-shard plan.
	k, shards := 0, 1
	if *shardSpec != "" {
		if k, shards, err = cliutil.ParseShard(*shardSpec); err != nil {
			return err
		}
	}
	plan, err := kron.PlanShards(d, *split, shards)
	if err != nil {
		return err
	}
	shard := plan[k]
	g, err := gen.New(d, *split)
	if err != nil {
		return err
	}
	fmt.Printf("design: %v — %d vertices, %d edges, nnz(B)=%d, nnz(C)=%d\n",
		d, g.NumVertices(), g.NumEdges(), g.BNNZ(), g.CNNZ())
	fmt.Printf("shard %d/%d: B triples [%d, %d), %d edges\n",
		shard.Shard, shard.Shards, shard.BLo, shard.BHi, shard.Edges)

	if *format != "tsv" && *stream == "" {
		return fmt.Errorf("-format applies to -stream only")
	}
	if *count {
		start := time.Now()
		total, checksum, err := g.CountShard(context.Background(), shard, *workers)
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
	if *stream == "" {
		return fmt.Errorf("choose -count or -stream DIR")
	}
	return streamChunks(g, shard, *workers, *stream, *format)
}

// streamChunks writes one edge chunk per worker of this process's shard of
// the deterministic plan through the pipeline layer. Each worker owns its
// file via a PerWorker-routed Writer sink, and a Counter rides the same
// Tee, so the reported edge total is measured from the one generation pass
// that wrote the chunks; the graph is never materialized and no state is
// shared between workers. Binary chunks get their end-of-stream trailer
// (count + XOR checksum) from the stream pass's sink Close, which finishes
// each writer; with one worker the chunk's header also carries the shard's
// exact edge count, known at design time, so the file is verifiable on its
// own (kronvalidate -in).
func streamChunks(g *gen.Generator, shard gen.ShardInfo, workers int, dir, format string) error {
	if format != "tsv" && format != "bin" {
		return fmt.Errorf("unknown -format %q (want tsv or bin)", format)
	}
	binary := format == "bin"
	// A multi-worker chunk covers an unpredictable share of the stream, so
	// its header omits nnz; a single chunk is the shard's whole stream,
	// whose exact count is known before generation.
	chunkNNZ := int64(-1)
	if workers == 1 {
		chunkNNZ = shard.Edges
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
			ew, err := graphio.NewBinaryEdgeWriter(f, chunkNNZ)
			if err != nil {
				return err
			}
			sinks[p] = pipeline.Writer(ew)
		} else {
			sinks[p] = pipeline.Writer(graphio.NewTSVEdgeWriter(f))
		}
	}
	counter := pipeline.NewCounter(workers)
	// Every format runs the generator's one loop over B triples; only the
	// writer differs. A bin writer sends each C block once and every run
	// as a run frame, a tsv writer expands each run into edges, and the
	// counter adds each run's length.
	sink := pipeline.Tee(pipeline.PerWorker(sinks...), counter)
	start := time.Now()
	if err := g.StreamShardTo(context.Background(), shard, workers, 0, sink); err != nil {
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
