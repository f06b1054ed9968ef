//go:build race

package service

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates on its own: the alloc-regression guard still
// drives the streaming path (so the race detector sees it) but skips the
// zero-allocation assertion.
const raceEnabled = true
