package main

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// node is one element of the pointer graph a garbage-heavy rep leaves live.
type node struct {
	next *node
	pad  [2]uint64
}

var live *node

// garbageRep stands in for a rep that allocates a lot: it leaves a large
// live heap behind and a collection that is still marking it.  The returned
// channel closes when that collection has finished.  It runs with the
// collector off, so that exactly one cycle, the one it starts, is in flight
// when it returns; the caller turns the collector back on.
func garbageRep() <-chan struct{} {
	debug.SetGCPercent(-1)
	for i := 0; i < 1_000_000; i++ {
		live = &node{next: live}
	}
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		close(started)
		runtime.GC()
		close(done)
	}()
	<-started
	time.Sleep(time.Millisecond) // the cycle starts in microseconds; marking takes tens of ms
	return done
}

// TestCalibrationIgnoresGarbage: a rep that leaves the collector busy does
// not raise the slowdown of the sample taken right after it.  Without the
// wait in take, the collector's mark worker takes one of the processors the
// kernel's goroutines run on.
func TestCalibrationIgnoresGarbage(t *testing.T) {
	cal := newCalibrator(min(runtime.GOMAXPROCS(0), 8))
	// Each garbage-heavy sample is compared with a quiet one taken just
	// before it, so drift in the host's speed cancels.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var ratios []float64
	for i := 0; i < 15; i++ {
		live = nil
		runtime.GC()
		debug.SetGCPercent(gcPercent)
		quiet := cal.take()
		gcDone := garbageRep()
		ratios = append(ratios, cal.take()/quiet)
		<-gcDone
	}
	live = nil
	r := median(ratios)
	t.Logf("slowdown after a garbage-heavy rep over that after a quiet one: median %.3f of %.3v", r, ratios)
	if r > 1.1 {
		t.Errorf("a garbage-heavy rep raised the next sample's slowdown by %.0f%%", (r-1)*100)
	}
}
