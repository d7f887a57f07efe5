package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Resources is the per-run resource-attribution record written into result
// JSON (result_version ≥ 4): what one job cost the process in CPU, memory,
// and garbage collection, plus the serving-side wait breakdown.  Values are
// deltas of process-wide runtime/metrics counters measured around spec.Exec —
// with one worker (the serving default) they attribute cleanly to the job;
// with several workers concurrent jobs share the process counters and the
// numbers are an upper bound, which the DESIGN doc calls out.
type Resources struct {
	// CPUUserMS is user-mode CPU milliseconds consumed while the job ran.
	CPUUserMS float64 `json:"cpu_user_ms"`
	// GCCPUMS is CPU milliseconds the garbage collector consumed.
	GCCPUMS float64 `json:"gc_cpu_ms"`
	// AllocBytes / AllocObjects are heap allocation totals.  The runtime
	// counts allocations served from a P's cached span only once that span
	// is refilled or flushed (at the latest, the next GC), so a total may
	// lag the allocations made just before Stop by up to a span per P.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// PeakHeapDeltaBytes is the largest observed growth of live heap bytes
	// over the baseline at job start (sampled, so a short spike between
	// samples can be missed).
	PeakHeapDeltaBytes uint64 `json:"peak_heap_delta_bytes"`
	// GCPauseMS approximates total stop-the-world pause time during the job
	// (midpoint sum over the /gc/pauses:seconds histogram delta).
	GCPauseMS float64 `json:"gc_pause_ms"`
	// GCPauseShare is GCPauseMS over the job's wall time, 0..1.
	GCPauseShare float64 `json:"gc_pause_share"`
	// GCCycles counts completed GC cycles during the job.
	GCCycles uint64 `json:"gc_cycles"`
	// WallMS is the metered interval's wall-clock length.
	WallMS float64 `json:"wall_ms"`
	// QueueWaitMS / RetryWaitMS / Attempts are the serving-side breakdown:
	// time queued before the first attempt, backoff slept between attempts,
	// and how many attempts ran.  Filled by the serve layer, not the meter.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RetryWaitMS float64 `json:"retry_wait_ms"`
	Attempts    int     `json:"attempts"`
}

// The runtime/metrics samples the meter reads.  Reading by name into a
// pre-built sample slice is allocation-free after the first call.
const (
	rmCPUUser    = "/cpu/classes/user:cpu-seconds"
	rmCPUGC      = "/cpu/classes/gc/total:cpu-seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmHeapLive   = "/memory/classes/heap/objects:bytes"
	rmGCPauses   = "/gc/pauses:seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGoroutines = "/sched/goroutines:goroutines"
)

// ResourceMeter measures one interval.  Start it immediately before the work,
// Stop it after; the background sampler tracks peak live heap in between.
type ResourceMeter struct {
	start    time.Time
	base     []metrics.Sample
	baseHeap uint64

	mu       sync.Mutex
	peakHeap uint64
	stop     chan struct{}
	done     chan struct{}
}

func meterSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: rmCPUUser},
		{Name: rmCPUGC},
		{Name: rmAllocBytes},
		{Name: rmAllocObjs},
		{Name: rmHeapLive},
		{Name: rmGCPauses},
		{Name: rmGCCycles},
	}
}

// StartResourceMeter snapshots the baseline and starts the peak-heap sampler
// (one goroutine polling live heap every interval; 0 selects 25ms).
func StartResourceMeter(interval time.Duration) *ResourceMeter {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	m := &ResourceMeter{
		start: time.Now(),
		base:  meterSamples(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	metrics.Read(m.base)
	m.baseHeap = kindUint64(m.base[4])
	m.peakHeap = m.baseHeap
	go m.sample(interval)
	return m
}

func (m *ResourceMeter) sample(interval time.Duration) {
	defer close(m.done)
	probe := []metrics.Sample{{Name: rmHeapLive}}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			metrics.Read(probe)
			if v := kindUint64(probe[0]); v > 0 {
				m.mu.Lock()
				if v > m.peakHeap {
					m.peakHeap = v
				}
				m.mu.Unlock()
			}
		}
	}
}

// Stop ends the interval and returns the attribution record (wait breakdown
// fields zero — the caller owns those).
func (m *ResourceMeter) Stop() Resources {
	if m == nil {
		return Resources{}
	}
	close(m.stop)
	<-m.done
	end := meterSamples()
	metrics.Read(end)
	wall := time.Since(m.start)

	var r Resources
	r.WallMS = float64(wall.Microseconds()) / 1000
	r.CPUUserMS = (kindFloat64(end[0]) - kindFloat64(m.base[0])) * 1000
	r.GCCPUMS = (kindFloat64(end[1]) - kindFloat64(m.base[1])) * 1000
	r.AllocBytes = kindUint64(end[2]) - kindUint64(m.base[2])
	r.AllocObjects = kindUint64(end[3]) - kindUint64(m.base[3])
	m.mu.Lock()
	if m.peakHeap > m.baseHeap {
		r.PeakHeapDeltaBytes = m.peakHeap - m.baseHeap
	}
	m.mu.Unlock()
	// Final heap read can exceed anything the sampler saw.
	if v := kindUint64(end[4]); v > m.baseHeap && v-m.baseHeap > r.PeakHeapDeltaBytes {
		r.PeakHeapDeltaBytes = v - m.baseHeap
	}
	r.GCPauseMS = histDeltaSum(end[5], m.base[5]) * 1000
	if sec := wall.Seconds(); sec > 0 {
		r.GCPauseShare = (r.GCPauseMS / 1000) / sec
	}
	r.GCCycles = kindUint64(end[6]) - kindUint64(m.base[6])
	// Negative CPU deltas can only come from clamping/rounding inside the
	// runtime; floor at zero so the record never claims negative cost.
	if r.CPUUserMS < 0 {
		r.CPUUserMS = 0
	}
	if r.GCCPUMS < 0 {
		r.GCCPUMS = 0
	}
	return r
}

// kindUint64 / kindFloat64 read a sample defensively: runtime/metrics
// reserves the right to report KindBad for names a future runtime drops.
func kindUint64(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func kindFloat64(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// histDeltaSum approximates the value-sum delta between two cumulative
// Float64Histogram reads via bucket-midpoint weighting — the standard way to
// turn the runtime's pause/latency histograms into a single total.
func histDeltaSum(end, base metrics.Sample) float64 {
	if end.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	eh := end.Value.Float64Histogram()
	var bh *metrics.Float64Histogram
	if base.Value.Kind() == metrics.KindFloat64Histogram {
		bh = base.Value.Float64Histogram()
	}
	var total float64
	for i, n := range eh.Counts {
		if bh != nil && i < len(bh.Counts) {
			n -= bh.Counts[i]
		}
		if n == 0 {
			continue
		}
		total += float64(n) * bucketMid(eh.Buckets, i)
	}
	return total
}

// bucketMid returns a representative value for bucket i of a
// Float64Histogram (Counts[i] covers Buckets[i]..Buckets[i+1]).
func bucketMid(bounds []float64, i int) float64 {
	lo, hi := bounds[i], bounds[i+1]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, +1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, +1):
		return lo
	default:
		return (lo + hi) / 2
	}
}
