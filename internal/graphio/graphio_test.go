package graphio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

var sr = semiring.PlusTimesInt64()

func TestWriteReadRoundTrip(t *testing.T) {
	m := sparse.FromDense([][]int64{
		{0, 2, 0},
		{1, 0, 0},
		{0, 0, 5},
	}, sr)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(m, back, sr) {
		t.Error("TSV round trip changed matrix")
	}
}

func TestReadTSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0\t1\t3\n  \n1 0 4\n"
	m, err := ReadTSV(strings.NewReader(in), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.At(0, 1, sr) != 3 || m.At(1, 0, sr) != 4 {
		t.Errorf("parsed %v", m)
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("0\t1\n"), 2, 2); err == nil {
		t.Error("2-field line accepted")
	}
	if _, err := ReadTSV(strings.NewReader("x\t1\t1\n"), 2, 2); err == nil {
		t.Error("non-numeric row accepted")
	}
	if _, err := ReadTSV(strings.NewReader("0\ty\t1\n"), 2, 2); err == nil {
		t.Error("non-numeric col accepted")
	}
	if _, err := ReadTSV(strings.NewReader("0\t1\tz\n"), 2, 2); err == nil {
		t.Error("non-numeric val accepted")
	}
	if _, err := ReadTSV(strings.NewReader("5\t1\t1\n"), 2, 2); err == nil {
		t.Error("out-of-bounds entry accepted")
	}
}
