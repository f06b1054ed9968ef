package main

import (
	"math/rand/v2"
	"slices"
	"strings"

	"repro/internal/service"
)

// workloads are the benchmark's named traffic mixes. Each is a closed loop:
// one client, one connection, the next op sent when the last one has been
// verified. The why strings are BENCHMARK.json's.
var workloads = map[string]workload{
	"serve-delta": {
		name: "serve-delta",
		why: "block-run transport end to end: block engine, Async.Runs, delta replay, HTTP, client delta decode; " +
			"the only workload where replay and delta decode carry the load",
		edgeClass: classDelivered,
		prepare:   prepareServe(formatDelta),
	},
	"serve-tsv": {
		name: "serve-tsv",
		why: "batch transport end to end: batch engine, Tee of progress, per-edge checksum and pooled Async, " +
			"TSV encoder, chunked HTTP, client parse; bypasses block replay",
		edgeClass: classDelivered,
		prepare:   prepareServe(formatTSV),
	},
	"validate": {
		name: "validate",
		why: "exact kron.Validate with no HTTP: tally, scatter, CSR build and triangle counting; " +
			"the control for serving changes",
		edgeClass: classEnumerated,
		prepare:   prepareValidate,
	},
	"design": {
		name: "design",
		why: "sessions of cached JSON design queries at fig5-7 scale, all loop modes: " +
			"the only workload where the closed forms do real work",
		prepare: prepareDesign,
	},
}

// orderRounds is how many rounds of factor orders a serve or validate run
// cycles through; a run completes well under this many rounds.
const orderRounds = 32

// replayDesigns is how many of a run's designs the traced core replay times.
const replayDesigns = 3

// factorOrders draws the factor orders a serve or validate run cycles
// through. For the point sets these workloads use, the service's balanced
// split puts the first factor alone on the generator's B side and the rest
// on C, so the first factor sets most of an op's cost. Each round therefore
// puts every factor first once, in a seeded order, with the rest shuffled:
// every seed sees the same mix of split shapes.
func factorOrders(rng *rand.Rand, points []int, loop string) []service.DesignRequest {
	var out []service.DesignRequest
	for range orderRounds {
		for _, f := range rng.Perm(len(points)) {
			rest := slices.Concat(points[:f], points[f+1:])
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			out = append(out, service.DesignRequest{Points: slices.Concat([]int{points[f]}, rest), Loop: loop})
		}
	}
	return out
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}
