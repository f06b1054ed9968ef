package sinkretain_test

import (
	"testing"

	"repro/tools/kronvet/internal/vettest"
	"repro/tools/kronvet/sinkretain"
)

func TestSinkRetain(t *testing.T) {
	vettest.Run(t, vettest.TestData(), sinkretain.Analyzer, "a", "clean")
}
