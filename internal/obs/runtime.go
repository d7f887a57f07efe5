package obs

import (
	"math"
	"runtime/metrics"
)

// runtime writes a small runtime/metrics-backed scrape — scheduler,
// goroutine, heap, and GC health — that ends every exposition.  Families:
//
//	go_goroutines                   gauge
//	go_gc_cycles_total              counter
//	go_heap_objects_bytes           gauge (live heap)
//	go_heap_allocs_bytes_total      counter
//	go_gc_pause_seconds             histogram (cumulative since process start)
//	go_sched_latency_seconds        histogram (cumulative since process start)
//
// The two histograms come from runtime Float64Histograms, which use hundreds
// of irregular buckets; they are downsampled to a coarse ladder so the scrape
// stays scrape-sized, with _sum approximated by bucket midpoints.
func (x *Expo) runtime() {
	samples := []metrics.Sample{
		{Name: rmGoroutines},
		{Name: rmGCCycles},
		{Name: rmHeapLive},
		{Name: rmAllocBytes},
		{Name: rmGCPauses},
		{Name: rmSchedLat},
	}
	metrics.Read(samples)
	x.Gauge("go_goroutines", "goroutines currently live", kindUint64(samples[0]))
	x.Counter("go_gc_cycles_total", "completed GC cycles since process start", kindUint64(samples[1]))
	x.Gauge("go_heap_objects_bytes", "bytes of live heap objects", kindUint64(samples[2]))
	x.Counter("go_heap_allocs_bytes_total", "cumulative bytes allocated on the heap", kindUint64(samples[3]))
	x.runtimeHist("go_gc_pause_seconds",
		"stop-the-world GC pause distribution since process start", samples[4])
	x.runtimeHist("go_sched_latency_seconds",
		"time goroutines spent runnable before running, since process start", samples[5])
}

// runtimeHistBounds is the coarse ladder the runtime histograms are
// downsampled onto: 1µs to ~1s.
var runtimeHistBounds = ExpBuckets(1e-6, 4, 11)

// runtimeHist writes one runtime Float64Histogram as a histogram family on
// the coarse ladder.  Counts are cumulative since process start (Prometheus
// histograms are cumulative anyway, so rate() works as usual).
func (x *Expo) runtimeHist(name, help string, s metrics.Sample) {
	counts := make([]uint64, len(runtimeHistBounds)+1)
	var sum float64
	if s.Value.Kind() == metrics.KindFloat64Histogram {
		h := s.Value.Float64Histogram()
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			mid := bucketMid(h.Buckets, i)
			counts[searchBounds(runtimeHistBounds, mid)] += n
			sum += float64(n) * mid
		}
	}
	x.family(name, "histogram", help)
	x.series(name, "", runtimeHistBounds, counts, sum, nil)
}

// searchBounds returns the index of the first bound >= v (len(bounds) when v
// exceeds them all) — the same bucket rule Histogram.Observe uses.
func searchBounds(bounds []float64, v float64) int {
	for i, bound := range bounds {
		if v <= bound || math.IsInf(bound, +1) {
			return i
		}
	}
	return len(bounds)
}
