package bench

import (
	"runtime/debug"
	"sort"
	"time"
)

// Wall times from a shared host drift with its neighbours' load: the same
// build reads up to ~2× slower in one report than in the next.  The harness
// therefore times a fixed reference kernel between scenarios and records
// the median slowdown against the kernel's nominal time (Report.HostSlowdown),
// so two reports' wall times can be compared after dividing each by its own
// factor (ScaledWallDeltas).
//
// The kernel is the one the repository benchmark calibrates with
// (perfbench/calibrate.go, a separate module): a small branch-predictor
// simulation of its own, counter tables from 16 KiB to 768 KiB behind an
// interface fed a pseudo-random branch stream, because simpler kernels
// slowed less than the simulator under the same contention.  It shares no
// code with the simulator, so a change to the simulator moves the scenario
// times and not the factor, and the two factors read on the same scale.

// refNominalMS is the reference kernel's time at full vCPU speed on the
// host the benchmark was calibrated on; a slowdown of 1 reads as that host.
const refNominalMS = 20.0

// refBranches is the length of the reference kernel's branch stream.
const refBranches = 300_000

// hostSamplesPerPoint is how many kernel runs each calibration point takes.
const hostSamplesPerPoint = 3

// hostClock samples the reference kernel's slowdown.
type hostClock struct {
	ref     *refSim
	samples []float64 // slowdown of each kernel run
}

func newHostClock() *hostClock { return &hostClock{ref: newRefSim()} }

// sample times the kernel hostSamplesPerPoint times.  The collector is held
// off while it runs (disabling it first waits for a cycle in flight to
// finish), so garbage a scenario left behind is not charged to the host.
func (h *hostClock) sample() {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < hostSamplesPerPoint; i++ {
		t0 := time.Now()
		h.ref.run(refBranches)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		h.samples = append(h.samples, ms/refNominalMS)
	}
}

// slowdown is the median over every sample (1 when none was taken).
func (h *hostClock) slowdown() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	return s[len(s)/2]
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
