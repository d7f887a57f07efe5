package obs

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Metrics is the shared telemetry sink for a batch of simulations: atomic
// counters the cores and the runner update live, snapshotted into a
// Prometheus-style text exposition and a one-line progress report.  All
// methods are safe for concurrent use; a nil *Metrics is a valid no-op
// receiver for the Add/Job methods, so producers need no guards beyond the
// pointer they already hold.
type Metrics struct {
	start time.Time

	jobsTotal   atomic.Uint64
	jobsStarted atomic.Uint64
	jobsDone    atomic.Uint64
	jobsFailed  atomic.Uint64

	cycles     atomic.Uint64
	insts      atomic.Uint64
	eventDrops atomic.Uint64 // events lost to tracer ring overflow

	// Crash-safety accounting (internal/serve): corrupt cache entries
	// quarantined instead of served, digests re-enqueued by journal replay,
	// journal records skipped as unreadable, and failed jobs retried before
	// landing in the failure FIFO.
	cacheCorrupt    atomic.Uint64
	journalReplayed atomic.Uint64
	journalSkipped  atomic.Uint64
	jobRetries      atomic.Uint64

	// Latency/rate distributions (Prometheus histograms).  The serve-side
	// families stay at zero count in batch tools; the job families fill from
	// any runner batch.
	queueWait *Histogram // cobra_serve_queue_wait_seconds
	jobSecs   *Histogram // cobra_job_exec_seconds
	jobRate   *Histogram // cobra_job_insts_per_second
	reqHit    *Histogram // cobra_request_seconds{result="hit"}
	reqMiss   *Histogram // cobra_request_seconds{result="miss"}

	// Per-run resource attribution (PR 8): CPU cost split by class and heap
	// allocation volume per executed job, fed from ResourceMeter records.
	runCPUUser *Histogram // cobra_run_cpu_seconds{class="user"}
	runCPUGC   *Histogram // cobra_run_cpu_seconds{class="gc"}
	runAlloc   *Histogram // cobra_run_alloc_bytes
}

// Histogram bucket ladders: wall-clock seconds from 1 ms to ~33 s, and
// simulation throughput from 10k to ~2.6G committed instructions/second.
var (
	secondsBuckets = ExpBuckets(0.001, 2, 16)
	rateBuckets    = ExpBuckets(10_000, 4, 10)
	// Heap allocation volume per run: 4 KiB to ~4 GiB.
	allocBuckets = ExpBuckets(4096, 4, 11)
)

// NewMetrics returns a zeroed metrics sink with the uptime clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		start: time.Now(),
		queueWait: NewHistogram("cobra_serve_queue_wait_seconds",
			"time a job spent queued before a worker picked it up", "", secondsBuckets),
		jobSecs: NewHistogram("cobra_job_exec_seconds",
			"wall-clock execution time per simulation job", "", secondsBuckets),
		jobRate: NewHistogram("cobra_job_insts_per_second",
			"committed instructions per wall-clock second per job", "", rateBuckets),
		reqHit: NewHistogram("cobra_request_seconds",
			"end-to-end run-request latency, split by cache outcome", `result="hit"`, secondsBuckets),
		reqMiss: NewHistogram("cobra_request_seconds",
			"end-to-end run-request latency, split by cache outcome", `result="miss"`, secondsBuckets),
		runCPUUser: NewHistogram("cobra_run_cpu_seconds",
			"CPU seconds attributed to one executed run, split by class", `class="user"`, secondsBuckets),
		runCPUGC: NewHistogram("cobra_run_cpu_seconds",
			"CPU seconds attributed to one executed run, split by class", `class="gc"`, secondsBuckets),
		runAlloc: NewHistogram("cobra_run_alloc_bytes",
			"heap bytes allocated while one run executed", "", allocBuckets),
	}
}

// ObserveQueueWait records one job's queue-wait time.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	if m != nil {
		m.queueWait.Observe(d.Seconds())
	}
}

// ObserveJob records one job's wall-clock execution time and, when the job
// committed instructions, its simulation throughput.
func (m *Metrics) ObserveJob(wall time.Duration, insts uint64) {
	if m == nil {
		return
	}
	m.jobSecs.Observe(wall.Seconds())
	if sec := wall.Seconds(); sec > 0 && insts > 0 {
		m.jobRate.Observe(float64(insts) / sec)
	}
}

// ObserveRequest records one end-to-end run request (submission to result),
// split by whether the result cache satisfied it.
func (m *Metrics) ObserveRequest(d time.Duration, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.reqHit.Observe(d.Seconds())
	} else {
		m.reqMiss.Observe(d.Seconds())
	}
}

// ObserveRequestEx is ObserveRequest with an exemplar: the request's trace ID
// is attached to the destination latency bucket so a slow bucket on /metrics
// (OpenMetrics scrape) links straight to the trace to pull up.
func (m *Metrics) ObserveRequestEx(d time.Duration, hit bool, traceID string) {
	if m == nil {
		return
	}
	if hit {
		m.reqHit.ObserveEx(d.Seconds(), traceID)
	} else {
		m.reqMiss.ObserveEx(d.Seconds(), traceID)
	}
}

// ObserveRunResources records one run's resource-attribution record into the
// labeled cost families.
func (m *Metrics) ObserveRunResources(r Resources) {
	if m == nil {
		return
	}
	m.runCPUUser.Observe(r.CPUUserMS / 1000)
	m.runCPUGC.Observe(r.GCCPUMS / 1000)
	m.runAlloc.Observe(float64(r.AllocBytes))
}

// RequestCount returns how many requests were recorded for one cache
// outcome — the test- and dashboard-facing accessor for the split family.
func (m *Metrics) RequestCount(hit bool) uint64 {
	if m == nil {
		return 0
	}
	if hit {
		return m.reqHit.Count()
	}
	return m.reqMiss.Count()
}

// AddEventDrops accumulates events lost to tracer ring overflow, so silent
// truncation of captured traces is visible on /metrics.
func (m *Metrics) AddEventDrops(n uint64) {
	if m != nil && n > 0 {
		m.eventDrops.Add(n)
	}
}

// AddCacheCorrupt counts disk-cache entries that failed checksum
// verification and were quarantined instead of served.
func (m *Metrics) AddCacheCorrupt(n uint64) {
	if m != nil {
		m.cacheCorrupt.Add(n)
	}
}

// AddJournalReplayed counts digests the run journal re-enqueued on startup
// because they were accepted before a crash but never completed.
func (m *Metrics) AddJournalReplayed(n uint64) {
	if m != nil {
		m.journalReplayed.Add(n)
	}
}

// AddJournalSkipped counts journal records replay could not use (torn final
// write, checksum mismatch, unknown record type from a future version).
func (m *Metrics) AddJournalSkipped(n uint64) {
	if m != nil {
		m.journalSkipped.Add(n)
	}
}

// AddJobRetries counts automatic re-executions of failed jobs before they
// land in the failure FIFO.
func (m *Metrics) AddJobRetries(n uint64) {
	if m != nil {
		m.jobRetries.Add(n)
	}
}

// AddJobs records n submitted jobs.
func (m *Metrics) AddJobs(n int) {
	if m != nil {
		m.jobsTotal.Add(uint64(n))
	}
}

// JobStarted records one job beginning execution.
func (m *Metrics) JobStarted() {
	if m != nil {
		m.jobsStarted.Add(1)
	}
}

// JobDone records one job finishing; failed marks it as errored.
func (m *Metrics) JobDone(failed bool) {
	if m == nil {
		return
	}
	m.jobsDone.Add(1)
	if failed {
		m.jobsFailed.Add(1)
	}
}

// AddCycles accumulates simulated cycles (cores flush deltas periodically).
func (m *Metrics) AddCycles(n uint64) {
	if m != nil {
		m.cycles.Add(n)
	}
}

// AddInsts accumulates committed instructions.
func (m *Metrics) AddInsts(n uint64) {
	if m != nil {
		m.insts.Add(n)
	}
}

// Snapshot is a consistent-enough point-in-time read of the counters with
// the derived rates the reports print.
type Snapshot struct {
	JobsTotal, JobsStarted, JobsDone, JobsFailed uint64
	Cycles, Instructions                         uint64
	EventDrops                                   uint64
	CacheCorrupt                                 uint64
	JournalReplayed                              uint64
	JournalSkipped                               uint64
	JobRetries                                   uint64
	Uptime                                       time.Duration
	KCyclesPerSec                                float64 // simulation rate
}

// Snap reads the counters.
func (m *Metrics) Snap() Snapshot {
	s := Snapshot{
		JobsTotal:       m.jobsTotal.Load(),
		JobsStarted:     m.jobsStarted.Load(),
		JobsDone:        m.jobsDone.Load(),
		JobsFailed:      m.jobsFailed.Load(),
		Cycles:          m.cycles.Load(),
		Instructions:    m.insts.Load(),
		EventDrops:      m.eventDrops.Load(),
		CacheCorrupt:    m.cacheCorrupt.Load(),
		JournalReplayed: m.journalReplayed.Load(),
		JournalSkipped:  m.journalSkipped.Load(),
		JobRetries:      m.jobRetries.Load(),
		Uptime:          time.Since(m.start),
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.KCyclesPerSec = float64(s.Cycles) / 1000 / sec
	}
	return s
}

// expo writes m's families.
func (m *Metrics) expo(x *Expo) {
	s := m.Snap()
	x.Counter("cobra_jobs_total", "simulation jobs submitted to the runner", s.JobsTotal)
	x.Gauge("cobra_jobs_running", "jobs currently executing", s.JobsStarted-s.JobsDone)
	x.Gauge("cobra_jobs_done", "jobs finished (including failures)", s.JobsDone)
	x.Gauge("cobra_jobs_failed", "jobs that returned an error", s.JobsFailed)
	x.Counter("cobra_sim_cycles_total", "simulated cycles across all jobs", s.Cycles)
	x.Counter("cobra_sim_instructions_total", "committed instructions across all jobs", s.Instructions)
	x.Gauge("cobra_sim_kcycles_per_second", "aggregate simulation rate", fmt.Sprintf("%.1f", s.KCyclesPerSec))
	x.Gauge("cobra_uptime_seconds", "seconds since the metrics sink was created", fmt.Sprintf("%.1f", s.Uptime.Seconds()))
	x.Counter("cobra_trace_events_dropped_total", "cycle-level events lost to tracer ring overflow", s.EventDrops)
	x.Counter("cobra_cache_corrupt_total", "disk-cache entries that failed verification and were quarantined", s.CacheCorrupt)
	x.Counter("cobra_journal_replayed_total", "accepted-but-incomplete digests re-enqueued by journal replay", s.JournalReplayed)
	x.Counter("cobra_journal_records_skipped_total", "journal records replay skipped as unreadable or unknown", s.JournalSkipped)
	x.Counter("cobra_job_retries_total", "automatic re-executions of failed jobs before the failure FIFO", s.JobRetries)
	for _, h := range []*Histogram{m.queueWait, m.jobSecs, m.jobRate, m.runAlloc} {
		x.histogram(h)
	}
	// The labeled splits are one family each: one HELP/TYPE header, two
	// labeled series.
	x.histogram(m.reqHit, m.reqMiss)
	x.histogram(m.runCPUUser, m.runCPUGC)
}

// ProgressLine renders the one-line periodic report long sweeps print.
func (m *Metrics) ProgressLine() string {
	s := m.Snap()
	return fmt.Sprintf("[runner] %d/%d jobs done (%d running, %d failed)  %.1f Mcycles  %.1f Minsts  %.1f kcycles/s  %s elapsed",
		s.JobsDone, s.JobsTotal, s.JobsStarted-s.JobsDone, s.JobsFailed,
		float64(s.Cycles)/1e6, float64(s.Instructions)/1e6, s.KCyclesPerSec,
		s.Uptime.Truncate(time.Second))
}

// ServeMetrics starts an HTTP listener on addr serving m's exposition
// (Handler) at / and /metrics.  It returns the bound address (useful with
// ":0") and a closer.  Pass the returned close func to defer so tests and
// tools release the port.
func ServeMetrics(addr string, m *Metrics) (string, func() error, error) {
	mux := http.NewServeMux()
	h := m.Handler(nil)
	mux.HandleFunc("/", h)
	mux.HandleFunc("/metrics", h)
	return serve(addr, mux)
}

// ServePprof starts an HTTP listener on addr exposing the shared debug
// surface (net/http/pprof — CPU and heap profiles, goroutine dumps, the
// /debug/pprof/trace runtime execution tracer — plus /debug/flight).  It
// returns the bound address and a closer.
func ServePprof(addr string) (string, func() error, error) {
	mux := http.NewServeMux()
	RegisterDebug(mux)
	return serve(addr, mux)
}

func serve(addr string, mux *http.ServeMux) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close is expected
	return ln.Addr().String(), func() error { return srv.Close() }, nil
}
