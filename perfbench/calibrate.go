package main

import (
	"runtime/debug"
	"sync"
	"time"
)

// The host this benchmark was built on is a shared VM.  As neighbours load
// the physical cores under its two vCPUs, each vCPU runs the simulator up
// to twice as slowly, in phases lasting from a tenth of a second to
// minutes.  A 15 s run therefore lands anywhere from 1× to 2× slower, and
// medians of raw times moved by 20–45% between runs.
//
// The calibrator removes that drift.  It times a fixed reference kernel
// between reps, on as many goroutines at once as the workload keeps busy,
// and the harness divides each rep's times by the slowdown measured just
// before and just after it.  The kernel is written here and shares no code
// with the program under test; a slower or faster host moves both.
//
// The kernel runs in the benchmark's process, so the program must not reach
// into a sample through the runtime they share.  Before each sample the
// calibrator waits for any garbage collection a rep left running to finish,
// and it holds the collector off until the sample ends (see take).  Nothing
// else of a rep outlives it: servers are shut down and their connections
// closed, fleet runs have returned, and the program's journal and cache
// writes were fsynced inside the rep.  A change that makes the program
// allocate more is therefore paid in rep time, not hidden in the slowdown.
// TestCalibrationIgnoresGarbage checks this.
//
// Simple kernels (hashing, pointer chasing) slowed 1.2–3× less than the
// simulator under the same contention.  The reference is therefore a small
// branch-predictor simulation of its own: counter tables from 16 KiB to
// 768 KiB behind an interface, fed a pseudo-random branch stream with
// data-dependent outcomes.  Across 16 processes its time tracked the trace
// replay's with an elasticity of 0.96 and a correlation of 0.96.
type calibrator struct {
	refs    []*refSim // one per goroutine
	origin  time.Time
	at      []float64 // end of each sample, ms since origin
	samples []float64 // each sample's kernel time, ms, mean over goroutines
}

// refNominalMS is the reference kernel's time on the reference host when its
// vCPUs run at full speed, so scaled times read as milliseconds there.
const refNominalMS = 20.0

// calibrateEvery is the least time between two reference samples taken
// between reps.
const calibrateEvery = 250 * time.Millisecond

// refBranches is the length of the reference kernel's branch stream.
const refBranches = 300_000

func newCalibrator(threads int) *calibrator {
	c := &calibrator{origin: time.Now()}
	for i := 0; i < max(threads, 1); i++ {
		c.refs = append(c.refs, newRefSim())
	}
	return c
}

// now is the time since the calibrator started, in ms.
func (c *calibrator) now() float64 { return msSince(c.origin) }

// take times the kernel now, on every goroutine at once, and returns the
// sample's slowdown.  Disabling the collector first waits for a cycle in
// flight to finish marking, outside the timed region; none is forced, so the
// program's garbage is still collected on its own schedule.  The kernel
// barely allocates, so holding collection off for one sample costs nothing.
func (c *calibrator) take() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ms := make([]float64, len(c.refs))
	var wg sync.WaitGroup
	for i, r := range c.refs {
		wg.Add(1)
		go func(i int, r *refSim) {
			defer wg.Done()
			t0 := time.Now()
			r.run(refBranches)
			ms[i] = msSince(t0)
		}(i, r)
	}
	wg.Wait()
	c.at = append(c.at, c.now())
	c.samples = append(c.samples, sum(ms)/float64(len(ms)))
	return c.samples[len(c.samples)-1] / refNominalMS
}

// due takes a sample unless one was taken in the last calibrateEvery.
func (c *calibrator) due() {
	if n := len(c.at); n == 0 || c.now()-c.at[n-1] >= float64(calibrateEvery.Milliseconds()) {
		c.take()
	}
}

// around is the slowdown over [start, end] (ms since origin): the mean of
// the last sample taken before start and the first taken after end.
func (c *calibrator) around(start, end float64) float64 {
	before, after := -1, -1
	for i, t := range c.at {
		if t <= start {
			before = i
		}
		if t >= end && after < 0 {
			after = i
		}
	}
	switch {
	case before >= 0 && after >= 0:
		return (c.samples[before] + c.samples[after]) / 2 / refNominalMS
	case before >= 0:
		return c.samples[before] / refNominalMS
	case after >= 0:
		return c.samples[after] / refNominalMS
	}
	return 1
}

// slowdown is the median slowdown over every sample.
func (c *calibrator) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / refNominalMS
}

type refComp interface {
	predict(pc, hist uint64) (taken, hit bool)
	update(pc, hist uint64, taken bool)
}

// refCounters is an untagged table of 2-bit counters indexed by PC.
type refCounters struct{ t []uint8 }

func (b *refCounters) predict(pc, _ uint64) (bool, bool) {
	return b.t[pc&uint64(len(b.t)-1)] >= 2, true
}

func (b *refCounters) update(pc, _ uint64, taken bool) { bump(&b.t[pc&uint64(len(b.t)-1)], taken) }

// refTagged is a partially tagged table of 2-bit counters indexed by PC and
// a slice of the history.
type refTagged struct {
	t    []uint8
	tags []uint16
	bits uint
}

func (g *refTagged) index(pc, hist uint64) uint64 {
	return (pc ^ hist&(1<<g.bits-1) ^ hist>>7) & uint64(len(g.t)-1)
}

func (g *refTagged) predict(pc, hist uint64) (bool, bool) {
	i := g.index(pc, hist)
	return g.t[i] >= 2, g.tags[i] == uint16(pc>>3)
}

func (g *refTagged) update(pc, hist uint64, taken bool) {
	i := g.index(pc, hist)
	if g.tags[i] == uint16(pc>>3) {
		bump(&g.t[i], taken)
		return
	}
	g.tags[i], g.t[i] = uint16(pc>>3), 1
	if taken {
		g.t[i] = 2
	}
}

// refTargets is a direct-mapped target buffer.
type refTargets struct{ tgt []uint64 }

func (b *refTargets) predict(pc, _ uint64) (bool, bool) {
	return b.tgt[pc>>2&uint64(len(b.tgt)-1)] == pc+64, true
}

func (b *refTargets) update(pc, _ uint64, taken bool) {
	if taken {
		b.tgt[pc>>2&uint64(len(b.tgt)-1)] = pc + 64
	}
}

func bump(c *uint8, up bool) {
	if up && *c < 3 {
		*c++
	} else if !up && *c > 0 {
		*c--
	}
}

type refSim struct {
	comps []refComp
	bias  []uint8 // per-PC probability of taken, in 1/256
}

func newRefSim() *refSim {
	r := &refSim{bias: make([]uint8, 1<<14), comps: []refComp{
		&refCounters{t: make([]uint8, 1<<16)},
		&refTargets{tgt: make([]uint64, 1<<14)},
		&refTagged{t: make([]uint8, 1<<17), tags: make([]uint16, 1<<17), bits: 12},
		&refTagged{t: make([]uint8, 1<<18), tags: make([]uint16, 1<<18), bits: 24},
		&refTagged{t: make([]uint8, 1<<16), tags: make([]uint16, 1<<16), bits: 40},
	}}
	for i := range r.bias {
		r.bias[i] = uint8(uint64(i) * 2654435761 >> 7)
	}
	return r
}

// run predicts and trains n branches and returns the mispredictions.
func (r *refSim) run(n int) int {
	x, hist, pc, miss := uint64(0x9E3779B97F4A7C15), uint64(0), uint64(0x1000), 0
	for k := 0; k < n; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		taken := uint8(x) < r.bias[pc>>2&uint64(len(r.bias)-1)]
		final := false
		for _, c := range r.comps {
			if p, hit := c.predict(pc, hist); hit {
				final = p
			}
		}
		if final != taken {
			miss++
		}
		for _, c := range r.comps {
			c.update(pc, hist, taken)
		}
		hist <<= 1
		if taken {
			hist |= 1
			pc = (pc + x>>40&0x3ffc) & 0xfffff
		} else {
			pc += 4
		}
	}
	return miss
}
