//go:build go1.24

package dstore_test

import (
	"runtime"
	"testing"
	"weak"

	"rain/internal/dstore"
	"rain/internal/sim"
)

// TestFinishedPutReleasesFeed checks that a finished push-mode put lets go
// of its PutFeed (and with it the pipe and encoder) at once, although its
// operation deadline would only have fired OpTimeout later: finishing
// stops the deadline and the stall watches, and a stopped timer drops its
// callback.
func TestFinishedPutReleasesFeed(t *testing.T) {
	c := newCluster(t, 31, 6, 4, sim.ProfileLAN, nil)
	const size = 100 << 10
	data := randBytes(7, size)
	finished := false
	var ferr error
	wp := func() weak.Pointer[dstore.PutFeed] {
		f, err := c.clients["a"].NewPutFeed("released", size, func(_ int, e error) { ferr, finished = e, true })
		if err != nil {
			t.Fatal(err)
		}
		f.Offer(data)
		f.Close()
		return weak.Make(f)
	}()
	for !finished && c.s.Step() {
	}
	if !finished || ferr != nil {
		t.Fatalf("put finished=%v err=%v", finished, ferr)
	}
	if c.s.Pending() == 0 {
		t.Fatal("no timers pending: the check would not exercise the stopped deadline")
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("finished put's PutFeed is still reachable")
	}
	runtime.KeepAlive(c) // the scheduler and its queued events stay live
}
