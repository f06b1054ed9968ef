// Command kronvalidate generates a designed graph, measures its properties
// from the realized edges, and reports predicted-vs-measured agreement — the
// paper's validation stage (Figure 4 at laptop scale).
//
// Usage:
//
//	kronvalidate -mhat 3,4,5,9 -loop hub -split 2 -workers 4
//
// With -shard k/K it validates only shard k of the deterministic K-shard
// plan — the same plan krongen -shard generates from — reconciling the
// shard's measured edge count against the plan's closed-form count and
// printing the content checksum for comparison with the generating replica's.
// Each replica validates its own slice; the per-shard reports merge into the
// design-level verdict server-side (see kronserve's /v1/validate):
//
//	kronvalidate -mhat 3,4,5,9 -loop hub -split 2 -shard 0/4
//
// With -in it instead validates previously streamed edge chunks (krongen
// -stream output; KRNB binary chunks are auto-detected by magic, anything
// else is read as TSV) against the design: every edge must be a value-1
// entry between two of the design's vertices, and the files' combined edge
// count and XOR content checksum must equal the design's, recomputed by a
// count-only generation pass. Chunks may be listed in any order — both folds
// are order-independent — so per-worker and per-shard chunk sets reconcile
// without reassembly:
//
//	kronvalidate -mhat 3,4,5 -loop hub -split 2 -in 'chunks/edges_0000.bin,chunks/edges_0001.bin'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/kron"
)

func main() {
	// Ctrl-C stops the in-flight measurement passes within one batch
	// instead of abandoning a multi-second validation to the kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kronvalidate:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("kronvalidate", flag.ContinueOnError)
	mhat := fs.String("mhat", "", "comma-separated star sizes m̂")
	loop := fs.String("loop", "none", "self-loop mode: none, hub, or leaf")
	split := fs.Int("split", 1, "number of leading factors forming B in A = B ⊗ C")
	workers := fs.Int("workers", 1, "parallel workers")
	in := fs.String("in", "", "comma-separated edge stream files to reconcile against the design (binary auto-detected, else TSV)")
	shardSpec := fs.String("shard", "", "validate only shard k of the deterministic K-shard plan, as k/K (e.g. 0/4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in != "" && *shardSpec != "" {
		return fmt.Errorf("-in and -shard are mutually exclusive")
	}
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
	if *in != "" {
		return validateStreams(ctx, d, *split, *workers, strings.Split(*in, ","))
	}
	if *shardSpec != "" {
		return validateShard(ctx, d, *split, *workers, *shardSpec)
	}
	r, err := kron.Validate(ctx, d, *split, *workers)
	if err != nil {
		return err
	}
	fmt.Print(r)
	if !r.ExactAgreement {
		return fmt.Errorf("validation failed")
	}
	return nil
}

// validateShard runs the shard-native validation pass over one slice of the
// deterministic K-shard plan (at most 2^16 shards) and reconciles its
// measurement against the plan's closed-form edge count. The content
// checksum is printed so it can be compared with the generating replica's
// fold (its shard job's checksum, or krongen -shard -count's); a plan
// carries no checksums.
func validateShard(ctx context.Context, d *kron.Design, split, workers int, spec string) error {
	k, total, err := cliutil.ParseShard(spec)
	if err != nil {
		return err
	}
	plan, err := kron.PlanShards(d, split, total)
	if err != nil {
		return err
	}
	rep, err := kron.ValidateShard(ctx, d, split, workers, plan[k])
	if err != nil {
		return err
	}
	fmt.Printf("shard %d/%d: B rows [%d,%d)\n", k, total, rep.Shard.BLo, rep.Shard.BHi)
	fmt.Printf("measured: %d edges, checksum %x\n", rep.MeasuredEdges, rep.Checksum)
	fmt.Printf("plan:     %d edges\n", rep.Shard.Edges)
	if rep.MeasuredEdges != rep.Shard.Edges {
		return fmt.Errorf("shard disagrees with plan: measured %d edges, plan %d", rep.MeasuredEdges, rep.Shard.Edges)
	}
	fmt.Println("shard agreement: exact")
	return nil
}

// validateStreams checks every edge of every stream file and folds their
// edge count and XOR content checksum, recomputes the design's own count
// and checksum with a count-only generation pass (no edges stored on either
// side), and requires both pairs to agree exactly — the paper's
// predicted-vs-measured check applied to bytes that went over the wire.
func validateStreams(ctx context.Context, d *kron.Design, split, workers int, paths []string) error {
	g, err := gen.New(d, split)
	if err != nil {
		return err
	}
	var total, checksum int64
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		n, sum, err := foldStreamFile(ctx, path, g.NumVertices())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %d edges, checksum %x\n", path, n, sum)
		total += n
		checksum ^= sum
	}
	wantTotal, wantSum, err := g.CountEdges(ctx, workers)
	if err != nil {
		return err
	}
	fmt.Printf("streams: %d edges, checksum %x\n", total, checksum)
	fmt.Printf("design:  %d edges, checksum %x\n", wantTotal, wantSum)
	if total != wantTotal || checksum != wantSum {
		return fmt.Errorf("streams disagree with design: %d/%x vs %d/%x", total, checksum, wantTotal, wantSum)
	}
	fmt.Println("stream agreement: exact")
	return nil
}

// foldStreamFile counts and checksums one edge stream file and checks each
// edge with checkEdge. A KRNB magic prefix selects the binary reader (which
// additionally verifies the file's own trailer and framing); anything else
// is parsed as a TSV stream with comment lines skipped.
func foldStreamFile(ctx context.Context, path string, vertices int64) (total, checksum int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(4)
	if err == nil && string(magic) == "KRNB" {
		info, err := graphio.ReadBinary(ctx, br, func(batch []graphio.Edge) error {
			for _, e := range batch {
				if err := checkEdge(e, vertices); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		return info.Edges, info.Checksum, nil
	}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return 0, 0, fmt.Errorf("malformed TSV line %q", line)
		}
		row, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad row in %q: %v", line, err)
		}
		col, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad col in %q: %v", line, err)
		}
		val, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad val in %q: %v", line, err)
		}
		if err := checkEdge(graphio.Edge{Row: row, Col: col, Val: val}, vertices); err != nil {
			return 0, 0, err
		}
		total++
		checksum ^= row*31 + col
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return total, checksum, nil
}

// checkEdge rejects what the count and checksum leave out: every entry of a
// star-product adjacency matrix is 1, and both its coordinates are vertices
// of the design.
func checkEdge(e graphio.Edge, vertices int64) error {
	if e.Val != 1 || uint64(e.Row) >= uint64(vertices) || uint64(e.Col) >= uint64(vertices) {
		return fmt.Errorf("edge (%d, %d) = %d is not an entry of the design's %d-vertex 0/1 adjacency",
			e.Row, e.Col, e.Val, vertices)
	}
	return nil
}
