// Command kronperf is the repository's end-to-end benchmark. It runs one
// named workload against the real job service and library from a single
// process, checks every output, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"ops_per_s": {"value": 20.6, "unit": "1/s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists. With --trace 1 the run records spans around every call into the
// program's layers, replays the layers in isolation on the same inputs,
// reads the program's own stage counters, and reports the per-layer
// metrics. Run it through run.sh from the repository root:
//
//	bash kronperf/run.sh --workload serve-delta --seed 1 --seconds 20 --trace 0
//
// Each run also writes its labels, inputs, every metric and (traced runs)
// every span to a JSON file under --out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

// runTimeout bounds a whole run, set-up and layer replays included, so a
// hung op cannot keep the benchmark past its 180-second budget.
const runTimeout = 170 * time.Second

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kronperf:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kronperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed that draws every input of the run")
	seconds := fs.Float64("seconds", 20, "length of the measured closed loop in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", "", "directory for the run's result file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := run(ctx, w, cfg)
	if err != nil {
		return err
	}
	res.print(stdout)
	if *out != "" {
		if err := res.save(*out); err != nil {
			return err
		}
	}
	return writeSummary(stdout, res)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeSummary prints the result line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func writeSummary(w io.Writer, res *result) error {
	s := summary{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]summaryMetric),
	}
	names := endToEndMetrics
	if res.Traced {
		names = perLayerMetrics
	}
	for _, d := range names {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		s.Metrics[d.Name] = summaryMetric{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// errUnverified marks an op whose output did not match what the design
// predicts.
var errUnverified = errors.New("unverified output")
