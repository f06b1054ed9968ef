package graphio

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomBlock builds a band-ordered block-local edge list (the shape a
// C block presents to a writer) with rng-chosen size and values.
func randomBlock(rng *rand.Rand, maxEdges int) []Edge {
	n := 1 + rng.Intn(maxEdges)
	block := make([]Edge, n)
	row, col := int64(rng.Intn(4)), int64(0)
	for i := range block {
		if rng.Intn(3) == 0 {
			row += int64(rng.Intn(2))
			col = int64(rng.Intn(5))
		} else {
			col += int64(1 + rng.Intn(9))
		}
		block[i] = Edge{Row: row, Col: col, Val: int64(1 + rng.Intn(3))}
	}
	return block
}

// randomRun picks a non-empty sub-range of b at a random offset.
func randomRun(rng *rand.Rand, b *Block) Run {
	lo := rng.Intn(b.Len())
	hi := lo + 1 + rng.Intn(b.Len()-lo)
	return Run{Block: b, Lo: lo, Hi: hi, RowBase: int64(rng.Intn(1 << 16)), ColBase: int64(rng.Intn(1 << 16))}
}

// replayScript is one randomized interleaving of batch writes and run
// replays, applied identically to two writers so their byte streams can be
// compared. It returns the reference expansion of everything written.
func replayScript(t *testing.T, rng *rand.Rand, w *BinaryEdgeWriter) []Edge {
	t.Helper()
	var ref []Edge
	steps := 2 + rng.Intn(12)
	for s := 0; s < steps; s++ {
		if rng.Intn(3) == 0 {
			batch := randomBlock(rng, 64)
			if err := w.WriteEdges(batch); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, batch...)
			continue
		}
		b := NewBlock(randomBlock(rng, 48))
		replays := 1 + rng.Intn(4)
		for r := 0; r < replays; r++ {
			run := randomRun(rng, b)
			if err := w.WriteRun(run); err != nil {
				t.Fatal(err)
			}
			ref = run.AppendEdges(ref)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestBlockReplayMatchesOracle drives many random interleavings of batch
// writes and run replays through the replay kernel and through the
// per-edge oracle (SetBlockReplay(false)), which encodes the same frames
// edge by edge. The two byte streams must be identical, and the stream must
// round-trip through ReadBinary to exactly the reference expansion with the
// reference checksum in the trailer.
func TestBlockReplayMatchesOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		var replayed, oracle bytes.Buffer
		rw, err := NewBinaryEdgeWriter(&replayed, -1, BinaryDelta)
		if err != nil {
			t.Fatal(err)
		}
		ow, err := NewBinaryEdgeWriter(&oracle, -1, BinaryDelta)
		if err != nil {
			t.Fatal(err)
		}
		ow.SetBlockReplay(false)
		ref := replayScript(t, rand.New(rand.NewSource(int64(1000+trial))), rw)
		_ = replayScript(t, rand.New(rand.NewSource(int64(1000+trial))), ow)
		if !bytes.Equal(replayed.Bytes(), oracle.Bytes()) {
			t.Fatalf("trial %d: replayed stream (%d bytes) differs from per-edge oracle (%d bytes)",
				trial, replayed.Len(), oracle.Len())
		}
		got, info, err := collectBinary(t, replayed.Bytes())
		if err != nil {
			t.Fatalf("trial %d: reading replayed stream: %v", trial, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: round trip produced %d edges, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: edge %d = %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
		if int(info.Edges) != len(ref) {
			t.Fatalf("trial %d: trailer count %d, want %d", trial, info.Edges, len(ref))
		}
		if want := foldChecksum(0, ref); info.Checksum != want {
			t.Fatalf("trial %d: trailer checksum %#x, fold of expansion %#x", trial, uint64(info.Checksum), uint64(want))
		}
	}
}

// TestBlockRunFixedEncoding checks the fixed encoding accepts runs by
// expanding them: the decode must equal the expansion, trailer included.
func TestBlockRunFixedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w, err := NewBinaryEdgeWriter(&buf, -1, BinaryFixed)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlock(randomBlock(rng, 400))
	var ref []Edge
	for r := 0; r < 8; r++ {
		run := randomRun(rng, b)
		if err := w.WriteRun(run); err != nil {
			t.Fatal(err)
		}
		ref = run.AppendEdges(ref)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	got, info, err := collectBinary(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("decoded %d edges, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], ref[i])
		}
	}
	if want := foldChecksum(0, ref); info.Checksum != want {
		t.Fatalf("trailer checksum %#x, want %#x", uint64(info.Checksum), uint64(want))
	}
}

// TestDeltaBlockTemplateFold pins a run's closed-form checksum fold against
// the definitional per-edge fold over its expansion, on random sub-ranges
// and with offsets large enough to wrap int64 arithmetic.
func TestDeltaBlockTemplateFold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		b := NewBlock(randomBlock(rng, 40))
		run := randomRun(rng, b)
		for _, base := range [][2]int64{
			{0, 0},
			{int64(rng.Intn(1 << 20)), int64(rng.Intn(1 << 20))},
			{1 << 62, 1 << 61},
		} {
			run.RowBase, run.ColBase = base[0], base[1]
			want := foldChecksum(7, run.AppendEdges(nil))
			if got := run.FoldChecksum(7); got != want {
				t.Fatalf("trial %d bases %v: closed-form fold %#x, per-edge fold %#x",
					trial, base, uint64(got), uint64(want))
			}
		}
	}
}

// TestBlockReplayZeroAllocs pins the replay hot path at zero allocations per
// run: the block renders its delta records once, and steady state moves
// only cached bytes.
func TestBlockReplayZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := NewBinaryEdgeWriter(discardWriter{}, -1, BinaryDelta)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBlock(bandOrderedEdges(2048))
	run := Run{Block: b, Lo: 100, Hi: 612}
	if err := w.WriteRun(run); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		run.RowBase += 512
		run.ColBase += 512
		if err := w.WriteRun(run); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("WriteRun allocates %.1f times per replayed run, want 0", avg)
	}
}

// discardWriter is io.Discard without the io.ReaderFrom fast path, so the
// writer's own buffering is what is measured.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
