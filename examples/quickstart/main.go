// Quickstart: design a power-law Kronecker graph, read off its exact
// properties, generate it in parallel, and validate the generated edges
// against the design — the library's complete workflow in one file.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"repro/kron"
)

func main() {
	// 1. Design: a Kronecker product of stars with m̂ = {3, 4, 5, 9} and a
	// self-loop on every constituent hub (Case 1: many triangles).
	design, err := kron.FromPoints([]int{3, 4, 5, 9}, kron.LoopHub)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Exact properties, before generating anything.
	props, err := design.Compute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designed graph %v:\n%s", design, props.Report())

	// 3. Generate in parallel: split A = B ⊗ C after two factors; every
	// worker independently produces an equal slice of the edges with no
	// communication.
	gen, err := kron.NewGenerator(design, 2)
	if err != nil {
		log.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	var firstEdges []kron.Edge
	err = kron.StreamTo(context.Background(), gen, workers, 0, kron.SinkFunc(func(worker int, batch []kron.Edge) error {
		if worker == 0 && len(firstEdges) < 5 {
			firstEdges = append(firstEdges, batch[:min(len(batch), 5-len(firstEdges))]...)
		}
		return nil
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworker 0's first edges: %v\n", firstEdges)

	// 4. Validate: regenerate, measure everything from the edges alone, and
	// confirm exact agreement with the design.
	report, err := kron.Validate(context.Background(), design, 2, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", report)
}
