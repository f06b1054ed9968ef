package graphio

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// randomBlock builds a band-ordered block-local edge list (the shape a
// C block presents to a writer) with rng-chosen size: values 1 and
// coordinates in [0, 2^31), so it is eligible for block frames.
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
		block[i] = Edge{Row: row, Col: col, Val: 1}
	}
	return block
}

// spoilBlock makes block ineligible for block frames in one of the ways a
// block can be: a value other than 1, a negative coordinate, or one at
// 2^31.
func spoilBlock(rng *rand.Rand, block []Edge) []Edge {
	e := &block[rng.Intn(len(block))]
	switch rng.Intn(3) {
	case 0:
		e.Val = int64(2 + rng.Intn(3))
	case 1:
		e.Row = -1
	default:
		e.Col = 1 << 31
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
// replays over eligible and ineligible blocks, applied identically to two
// writers so their byte streams can be compared. It returns the reference
// expansion of everything written and how many runs went to blocks of
// each kind.
func replayScript(t *testing.T, rng *rand.Rand, w *BinaryEdgeWriter) (ref []Edge, eligible, ineligible int) {
	t.Helper()
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
		edges := randomBlock(rng, 48)
		spoilt := rng.Intn(3) == 0
		if spoilt {
			edges = spoilBlock(rng, edges)
		}
		b := NewBlock(edges)
		replays := 1 + rng.Intn(4)
		for r := 0; r < replays; r++ {
			run := randomRun(rng, b)
			if err := w.WriteRun(run); err != nil {
				t.Fatal(err)
			}
			ref = run.AppendEdges(ref)
			if spoilt {
				ineligible++
			} else {
				eligible++
			}
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return ref, eligible, ineligible
}

// TestBlockReplayMatchesOracle drives many random interleavings of batch
// writes and run replays through the replay kernel and through the
// per-edge oracle (SetBlockReplay(false)), which encodes the same block
// frames edge by edge. The two byte streams must be identical, and the
// stream must round-trip through ReadBinary to exactly the reference
// expansion with the reference checksum in the trailer. The runs cover
// eligible blocks (block and run frames) and ineligible ones (edge frames).
func TestBlockReplayMatchesOracle(t *testing.T) {
	var eligible, ineligible int
	for trial := 0; trial < 40; trial++ {
		var replayed, oracle bytes.Buffer
		rw, err := NewBinaryEdgeWriter(&replayed, -1)
		if err != nil {
			t.Fatal(err)
		}
		ow, err := NewBinaryEdgeWriter(&oracle, -1)
		if err != nil {
			t.Fatal(err)
		}
		ow.SetBlockReplay(false)
		ref, e, i := replayScript(t, rand.New(rand.NewSource(int64(1000+trial))), rw)
		_, _, _ = replayScript(t, rand.New(rand.NewSource(int64(1000+trial))), ow)
		eligible, ineligible = eligible+e, ineligible+i
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
	if eligible == 0 || ineligible == 0 {
		t.Fatalf("runs over %d eligible and %d ineligible blocks, want both kinds", eligible, ineligible)
	}
}

// TestBlockFramesSentOnce: a block crosses the wire once however many runs
// name it, so a replayed stream costs its block frame plus a few bytes per
// run, and a block that is not eligible costs what its expanded edges do.
func TestBlockFramesSentOnce(t *testing.T) {
	edges := bandOrderedEdges(4096)
	single := len(replaySeed(edges, 1))
	if many := len(replaySeed(edges, 1001)); many-single > 1000*24 {
		t.Fatalf("1000 more runs over a sent block cost %d bytes, want at most 24 each", many-single)
	}
	spoilt := slices.Clone(edges)
	spoilt[0].Val = 2
	if got, perEdge := len(replaySeed(spoilt, 4)), len(replaySeed(edges, 1)); got < 3*perEdge {
		t.Fatalf("4 runs over an ineligible block took %d bytes, want the edges of each (%d per run)", got, perEdge)
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
// run: the block renders its delta records once and is sent once, and
// steady state writes one run frame per run.
func TestBlockReplayZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := NewBinaryEdgeWriter(discardWriter{}, -1)
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
