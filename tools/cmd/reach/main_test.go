package main

import "testing"

// TestNMKey maps `go tool nm` lines of the forms the repository's binaries
// carry to the key of the declared function.
func TestNMKey(t *testing.T) {
	data := []struct {
		line string
		key  string
		ok   bool
	}{
		// A generic receiver's shape holds spaces, quotes and dots, so the
		// name must not be split on whitespace.
		{`  6b5880 T repro/internal/service.(*lru[go.shape.struct { Points []int "json:\"points\""; Loop string "json:\"loop\"" }]).get`, "service.lru.get", true},
		// A shape naming another package path, and a defer wrapper.
		{`  6b5820 T repro/internal/service.(*lru[go.shape.[]repro/internal/gen.ShardInfo]).put.deferwrap1`, "service.lru.put", true},
		// A closure inside a generic function.
		{`  67ea00 T repro/internal/semiring.PlusTimes[go.shape.int64].func3`, "semiring.PlusTimes", true},
		// A method value.
		{`  5c1e20 T repro/internal/sparse.(*CSRBuilder).Finalize-fm`, "sparse.CSRBuilder.Finalize", true},
		// Pointer and value receivers share one key.
		{`  6a0f40 T repro/internal/star.(*LoopMode).String`, "star.LoopMode.String", true},
		{`  6a0e80 T repro/internal/star.LoopMode.String`, "star.LoopMode.String", true},
		// A nested closure and a go wrapper stay with their function.
		{`  5d0a00 t repro/internal/parallel.RunContext.func1.gowrap1`, "parallel.RunContext", true},
		// A package outside internal/ keeps its path.
		{`  6c0000 T repro/kron.FromPoints`, "kron.FromPoints", true},
		// The second of several init funcs.
		{`  5e0000 T repro/internal/obs.init.0`, "obs.init", true},
		// Not text, not this module, or not a symbol line at all.
		{`  7a0000 D repro/internal/obs.Stages`, "", false},
		{`         U repro/internal/obs.Stages`, "", false},
		{`  4a0000 T main.main`, "", false},
		{`  4b0000 T fmt.Println`, "", false},
		{``, "", false},
	}
	for _, d := range data {
		key, ok := nmKey(d.line)
		if key != d.key || ok != d.ok {
			t.Errorf("nmKey(%q) = %q, %v; want %q, %v", d.line, key, ok, d.key, d.ok)
		}
	}
}
