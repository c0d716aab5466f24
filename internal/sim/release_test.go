//go:build go1.24

package sim

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

type payload struct{ b [256]byte }

// arm schedules a timer whose callback captures a fresh payload and
// returns a weak pointer to that payload.
func arm(s *Scheduler) (weak.Pointer[payload], Timer) {
	p := &payload{}
	return weak.Make(p), s.After(time.Hour, func() { p.b[0]++ })
}

// A stopped timer's callback — and whatever it captured — is collectable
// at once, while the cancelled event still waits in the queue; a live
// timer keeps its capture reachable.
func TestStoppedTimerReleasesCallback(t *testing.T) {
	s := New(1)
	stopped, tm := arm(s)
	live, _ := arm(s)
	tm.Stop()
	runtime.GC()
	if stopped.Value() != nil {
		t.Fatal("stopped timer's callback capture is still reachable")
	}
	if live.Value() == nil {
		t.Fatal("armed timer's callback capture was collected")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d, want both events still queued", s.Pending())
	}
	runtime.KeepAlive(s)
}
