package dstore

import (
	"io"
	"testing"
)

// TestPutFeedPipeBounded pins the feed's buffer: odd-sized offers, each
// drained a whole block at a time as pump does, cycle through one fixed
// two-block pipe — no allocation, no growth — however much passes.
func TestPutFeedPipeBounded(t *testing.T) {
	const block = DefaultBlockSize
	f := &PutFeed{pipe: make([]byte, 2*block)}
	piece := make([]byte, 7001) // misaligned with the block size
	out := make([]byte, block)
	step := func() {
		f.buffer(piece)
		for f.end-f.off >= block {
			if _, err := io.ReadFull(feedReader{f}, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Fatalf("offer/drain allocated %.2f per offer, want 0", n)
	}
	if len(f.pipe) != 2*block {
		t.Fatalf("pipe grew to %d bytes, want the fixed %d", len(f.pipe), 2*block)
	}
}
