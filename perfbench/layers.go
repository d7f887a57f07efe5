package main

import (
	"sort"
	"sync"
	"time"

	"cobra/internal/components"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/spec"
	"cobra/internal/sram"
)

// ledger accumulates one rep's (or one cycle's) per-layer accounting: busy wall time in
// milliseconds and plain counts, both keyed by "<module>.<thing>".  Safe for
// concurrent use (fleet and serve reps account from several goroutines).
type ledger struct {
	mu sync.Mutex
	ms map[string]float64
	n  map[string]float64
}

func newLedger() *ledger {
	return &ledger{ms: map[string]float64{}, n: map[string]float64{}}
}

func (l *ledger) addMS(key string, ms float64) {
	l.mu.Lock()
	l.ms[key] += ms
	l.mu.Unlock()
}

func (l *ledger) add(key string, n float64) {
	l.mu.Lock()
	l.n[key] += n
	l.mu.Unlock()
}

func (l *ledger) getMS(key string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ms[key]
}

func (l *ledger) get(key string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n[key]
}

// merge adds every entry of o into l.
func (l *ledger) merge(o *ledger) {
	o.mu.Lock()
	defer o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range o.ms {
		l.ms[k] += v
	}
	for k, v := range o.n {
		l.n[k] += v
	}
}

// addTimings books the phase breakdown spec.Exec measured for one run.
func (l *ledger) addTimings(t spec.Timings) {
	l.addMS("spec.canonicalize", t.CanonicalizeMS)
	l.addMS("spec.compose", t.ComposeMS)
	l.addMS("spec.workload", t.WorkloadMS)
	l.addMS("spec.warmup", t.WarmupMS)
	l.addMS("spec.simulate", t.SimulateMS)
}

// timeMS runs f and books its wall time under key.
func (l *ledger) timeMS(key string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.addMS(key, msSince(t0))
	return err
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// tracer is the instrumentation of one traced rep: the in-memory span
// recorder, the rep's root span, and every timing decorator it handed out.
// Untraced reps get a nil *tracer and pay nothing.
type tracer struct {
	root    *obs.ActiveSpan
	timeAll bool // decorators also time every call (tests compare the estimate with it)

	mu    sync.Mutex
	comps []*timedComp
}

func newTracer(rec *obs.SpanRecorder, name string) *tracer {
	return &tracer{root: rec.Start(obs.TraceContext{}, "bench", name)}
}

// span opens a child of the rep span around one public call; on an untraced
// rep (nil tracer) it returns a nil span, whose methods do nothing.
func (t *tracer) span(track, name string) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return t.root.Child(track, name)
}

// wrap is the spec.Attach.Wrap / compose.Options.Wrap hook of traced reps.
func (t *tracer) wrap(c pred.Subcomponent) pred.Subcomponent {
	base, _, _, err := components.ParseNodeName(c.Name())
	if err != nil {
		base = c.Name()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tc := newTimedComp(c, base, t.timeAll, uint64(len(t.comps)))
	t.comps = append(t.comps, tc)
	return tc
}

// settle folds every decorator's samples into the ledger — estimated busy
// ms per kind and signal group, and exact call counts — and returns the
// estimated total component time.  Call once, after the rep's last
// simulation has returned.
func (t *tracer) settle(led *ledger) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	cost := clockCost()
	total := 0.0
	for _, c := range t.comps {
		for sig := range c.calls {
			ms := c.estimateMS(sig, cost)
			led.addMS("components."+c.kind+"."+groupNames[groupOf[sig]], ms)
			led.add("components."+c.kind+".calls", float64(c.calls[sig]))
			total += ms
		}
	}
	return total
}

// Signals a decorator samples separately, and the groups it reports them
// in.  Sampling each signal on its own keeps the mix of a group's signals
// out of the estimate.
const (
	sPredict = iota
	sTick
	sFire
	sMispredict
	sRepair
	sUpdate
	nSignals
)

const (
	gPredict = iota
	gEvent   // Fire, Mispredict, Repair, Update
	gTick
	nGroups
)

var (
	groupNames = [nGroups]string{"predict", "event", "tick"}
	groupOf    = [nSignals]int{gPredict, gTick, gEvent, gEvent, gEvent, gEvent}
)

// samplePeriod is how many calls of one signal pass per timed call, on
// average.  Reading the clock around every call would cost more than most
// component calls take; every call is still counted.  The gap between timed
// calls is drawn uniformly from 1 to 2*samplePeriod-1, so that no regular
// pattern in the calls can line up with the sampling.
const samplePeriod = 16

// timedComp is the traced reps' timing decorator: a transparent
// pred.Subcomponent that counts every call and times one in samplePeriod.
// It forwards the optional probes the composer and the area model make
// (UsesLocalHistory, Mems) so wrapping changes no simulated behaviour.  One
// instance belongs to one pipeline, which is driven by one goroutine.
//
// With timeAll set (tests only) it times every call as well, and keeps the
// sampled calls' time apart, so the estimate can be checked against the
// whole.  Sampled and other calls must then run the same instructions:
// done decides branch-free whether a call was sampled, because on the
// reference host a branch that singles out the sampled calls made them run
// 10–30% slower than the rest.  Outside tests that cost is real: a sampled
// call follows the rarely taken branch in sample, so the estimate of the
// cheap event calls reads high (see README.md).
type timedComp struct {
	inner   pred.Subcomponent
	kind    string
	timeAll bool
	rng     uint64
	calls   [nSignals]uint64
	next    [nSignals]uint64 // call number of the signal's next sampled call
	sampled [nSignals]uint64
	ns      [nSignals]int64  // time of the sampled calls
	allN    [nSignals]uint64 // with timeAll, every call timed ...
	allNS   [nSignals]int64  // ... and their time
}

// newTimedComp wraps inner.  Each decorator draws its gaps from its own
// stream, so the components of a pipeline are not all sampled on the same
// branches.
func newTimedComp(inner pred.Subcomponent, kind string, timeAll bool, stream uint64) *timedComp {
	c := &timedComp{inner: inner, kind: kind, timeAll: timeAll, rng: splitmix(stream)}
	for sig := range c.next {
		c.next[sig] = c.gap()
	}
	return c
}

// sample counts a call of signal sig and reports whether to time it.
func (c *timedComp) sample(sig int) bool {
	c.calls[sig]++
	if c.timeAll {
		return true
	}
	return c.calls[sig] >= c.next[sig]
}

// splitmix is a well-mixed, never-zero xorshift seed for stream i.
func splitmix(i uint64) uint64 {
	z := (i + 1) * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31 | 1
}

// gap draws the number of calls from one sampled call to the next.
func (c *timedComp) gap() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return 1 + c.rng%(2*samplePeriod-1)
}

// outlierNS is the longest a timed call may take and still count.  Component
// calls take tens to hundreds of nanoseconds; a call that took longer than
// this was interrupted (preempted, or the host took the vCPU away), and
// weighting that by samplePeriod would swamp the estimate.
const outlierNS = 20_000

// done books a timed call.  Whether it was a sampled one is decided without
// a branch (see timedComp).
func (c *timedComp) done(sig int, t0 time.Time) {
	ns := time.Since(t0).Nanoseconds()
	hit := b2u(c.calls[sig] >= c.next[sig])
	c.next[sig] += hit * (c.calls[sig] + c.gap() - c.next[sig])
	if ns > outlierNS {
		return
	}
	c.allN[sig]++
	c.allNS[sig] += ns
	c.sampled[sig] += hit
	c.ns[sig] += int64(hit) * ns
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// estimateMS scales the mean sampled time of signal sig to all its calls,
// after removing the clock-read cost each sample carries.
func (c *timedComp) estimateMS(sig int, clockNS float64) float64 {
	return perCallMS(c.ns[sig], c.sampled[sig], c.calls[sig], clockNS)
}

func perCallMS(ns int64, n, calls uint64, clockNS float64) float64 {
	if n == 0 {
		return 0
	}
	return max(float64(ns)/float64(n)-clockNS, 0) * float64(calls) / 1e6
}

func (c *timedComp) Name() string        { return c.inner.Name() }
func (c *timedComp) Latency() int        { return c.inner.Latency() }
func (c *timedComp) MetaWords() int      { return c.inner.MetaWords() }
func (c *timedComp) NumInputs() int      { return c.inner.NumInputs() }
func (c *timedComp) Reset()              { c.inner.Reset() }
func (c *timedComp) Budget() sram.Budget { return c.inner.Budget() }

func (c *timedComp) UsesLocalHistory() bool {
	if lu, ok := c.inner.(interface{ UsesLocalHistory() bool }); ok {
		return lu.UsesLocalHistory()
	}
	return false
}

func (c *timedComp) Mems() []*sram.Mem {
	if mp, ok := c.inner.(interface{ Mems() []*sram.Mem }); ok {
		return mp.Mems()
	}
	return nil
}

func (c *timedComp) Predict(q *pred.Query) pred.Response {
	if !c.sample(sPredict) {
		return c.inner.Predict(q)
	}
	t0 := time.Now()
	r := c.inner.Predict(q)
	c.done(sPredict, t0)
	return r
}

func (c *timedComp) Tick(cycle uint64) {
	if !c.sample(sTick) {
		c.inner.Tick(cycle)
		return
	}
	t0 := time.Now()
	c.inner.Tick(cycle)
	c.done(sTick, t0)
}

func (c *timedComp) Fire(e *pred.Event) {
	if !c.sample(sFire) {
		c.inner.Fire(e)
		return
	}
	t0 := time.Now()
	c.inner.Fire(e)
	c.done(sFire, t0)
}

func (c *timedComp) Mispredict(e *pred.Event) {
	if !c.sample(sMispredict) {
		c.inner.Mispredict(e)
		return
	}
	t0 := time.Now()
	c.inner.Mispredict(e)
	c.done(sMispredict, t0)
}

func (c *timedComp) Repair(e *pred.Event) {
	if !c.sample(sRepair) {
		c.inner.Repair(e)
		return
	}
	t0 := time.Now()
	c.inner.Repair(e)
	c.done(sRepair, t0)
}

func (c *timedComp) Update(e *pred.Event) {
	if !c.sample(sUpdate) {
		c.inner.Update(e)
		return
	}
	t0 := time.Now()
	c.inner.Update(e)
	c.done(sUpdate, t0)
}

var (
	clockOnce sync.Once
	clockNS   float64
)

// clockCost is the median time between two back-to-back clock reads on this
// host: the bias every sampled call carries on top of the call itself.
func clockCost() float64 {
	clockOnce.Do(func() {
		const batches, per = 9, 2000
		xs := make([]float64, batches)
		for b := range xs {
			var sum time.Duration
			for i := 0; i < per; i++ {
				t0 := time.Now()
				sum += time.Since(t0)
			}
			xs[b] = float64(sum.Nanoseconds()) / per
		}
		sort.Float64s(xs)
		clockNS = xs[batches/2]
	})
	return clockNS
}
