// Fixture other: not a streaming package (tail "other") — the exported-API
// signature check does not apply, but Background/TODO are still banned in
// library code.
package other

import "context"

type Edge struct{ Row, Col int64 }

type Run struct{ Lo, Hi int }

type Sink interface {
	WriteRun(p int, r Run) error
	Close() error
}

// Drive takes a Sink without ctx: allowed outside the streaming packages.
func Drive(s Sink) error {
	return nil
}

type ShardReport struct{ Edges int64 }

// MergeReports consumes fragments without ctx: also allowed outside the
// streaming packages.
func MergeReports(reports []*ShardReport) error {
	return nil
}

func Helper() context.Context {
	return context.Background() // want `context\.Background\(\) in library code`
}
