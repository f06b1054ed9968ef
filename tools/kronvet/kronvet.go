// Package kronvet bundles the house go/analysis suite that mechanically
// enforces the repro tree's doc-comment contracts:
//
//   - sinkretain: a pipeline.Func callback must not let the batch slice
//     escape the call (the sink reuses its expansion buffer).
//   - atomicmix: a field touched by sync/atomic must never be accessed
//     non-atomically elsewhere (internal/obs counter discipline).
//   - ctxstream: streaming entry points thread context.Context;
//     context.Background/TODO are banned outside package main and tests.
//
// The suite runs via `go vet -vettool=$(which kronvet) ./...`; see
// cmd/kronvet.
package kronvet

import (
	"golang.org/x/tools/go/analysis"

	"repro/tools/kronvet/atomicmix"
	"repro/tools/kronvet/ctxstream"
	"repro/tools/kronvet/sinkretain"
)

// Analyzers returns the full kronvet suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		sinkretain.Analyzer,
		atomicmix.Analyzer,
		ctxstream.Analyzer,
	}
}
