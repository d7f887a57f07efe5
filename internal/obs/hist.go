package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency/rate distribution, rendered by
// Expo.histogram as `_bucket`/`_sum`/`_count` lines with cumulative `le`
// labels.  Buckets are chosen at construction and never reshaped, so
// Observe is a lock-free binary search plus two atomic adds; all methods
// are safe for concurrent use and valid on a nil receiver.
type Histogram struct {
	name  string
	help  string
	label string // extra label pair rendered into every series, e.g. `result="hit"`

	bounds  []float64 // ascending upper bounds; +Inf is implicit at the end
	buckets []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	count   atomic.Uint64

	// Per-bucket exemplars (most recent sample with a trace ID per bucket),
	// rendered only in the OpenMetrics exposition.  Guarded by a mutex: only
	// the low-rate request path calls ObserveEx, never the hot loop.
	exMu      sync.Mutex
	exemplars []exemplar // lazily sized to len(buckets)
}

// exemplar links one observed sample to the trace that produced it, so a slow
// histogram bucket points straight at a trace ID to pull up.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

// NewHistogram builds a histogram named name with the given ascending bucket
// upper bounds (+Inf is added implicitly).  label, when non-empty, is an
// extra `key="value"` pair rendered into every series — the mechanism behind
// families like cobra_request_seconds{result="hit"|"miss"}.
func NewHistogram(name, help, label string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must ascend: " + name)
	}
	return &Histogram{
		name: name, help: help, label: label,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous — the standard latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.  Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveEx records one sample like Observe and, when traceID is non-empty,
// remembers it as the destination bucket's exemplar for the OpenMetrics
// exposition.  Safe on a nil receiver.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	h.Observe(v)
	if h == nil || traceID == "" || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	ex := exemplar{traceID: traceID, value: v, ts: float64(time.Now().UnixMicro()) / 1e6}
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.buckets))
	}
	h.exemplars[idx] = ex
	h.exMu.Unlock()
}

// exemplarSnapshot returns a copy of the per-bucket exemplars (nil when none
// were ever recorded).
func (h *Histogram) exemplarSnapshot() []exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	return append([]exemplar(nil), h.exemplars...)
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
