// Package serve is the simulation-as-a-service layer: a long-lived HTTP
// daemon that accepts canonical RunSpecs, executes them on a bounded worker
// pool via the parallel runner, and memoizes results in a content-addressed
// cache keyed by the spec digest.  Because the digest covers everything that
// determines a run's outcome (topology, workload hash, seed, budgets, host,
// fault plan), a cache hit is byte-identical to recomputing — the service
// returns the stored bytes of the first execution verbatim.
//
// Every request is traced: the W3C traceparent header (when present) seeds a
// per-run span tree covering admission, cache lookup, queue wait, worker
// execution, the spec.Exec phases, render, and cache write; the trace is
// served back as Chrome trace_event JSON.  Latency histograms (queue wait,
// exec, end-to-end split by cache hit/miss) ride the /metrics exposition,
// and every job transition logs one structured line via log/slog.
//
// The API surface:
//
//	POST /v1/runs             submit a RunSpec (JSON body) → 200 done (cache
//	                          hit), 202 accepted (queued/running; identical
//	                          in-flight specs coalesce), 429 queue full,
//	                          503 draining
//	GET  /v1/runs/{id}        status/result by digest
//	GET  /v1/runs/{id}/events captured event trace of a finished run
//	GET  /v1/runs/{id}/intervals
//	                          windowed interval telemetry of a finished run
//	                          (JSON, or CBRAIVL1 binary with ?format=binary)
//	GET  /v1/runs/{id}/trace  request trace (Chrome trace_event JSON)
//	GET  /healthz             liveness (always 200 while the process serves)
//	GET  /healthz/ready       readiness (503 while draining)
//	GET  /metrics             Prometheus text exposition (obs.Metrics)
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

// resultVersion stamps every stored Result.  Bump it when the Result schema
// changes shape (it does NOT track the RunSpec schema — spec.Version covers
// that): the disk-cache filename carries the version, so entries written by
// an older server become deliberate misses instead of deserialization
// surprises.  v2 added result_version, trace_id, and the timings breakdown;
// v3 added the retries count and the integrity footer on disk entries; v4
// added the per-run resource-attribution record; v5 added the windowed
// interval-telemetry summary.
const resultVersion = 5

// Config shapes a Server.  Zero values select the documented defaults.
type Config struct {
	// Workers is the number of concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueLen bounds the pending-job queue; a full queue answers 429 with
	// Retry-After (default 64).
	QueueLen int
	// CacheEntries bounds the in-memory result LRU (default 256).
	CacheEntries int
	// CacheDir, when non-empty, persists results on disk so the cache
	// survives restarts.  The directory must exist.
	CacheDir string
	// JournalPath overrides where the durable run journal (the WAL of
	// accepted digests) lives.  Default: <CacheDir>/journal.wal when
	// CacheDir is set; empty with no CacheDir runs unjournaled, and a
	// restart then loses accepted-but-unfinished runs.
	JournalPath string
	// JobRetries is how many times a failed job is automatically re-executed
	// (with backoff) before it lands in the failure FIFO.  0 selects the
	// default (2); negative disables retries.
	JobRetries int
	// RetryBackoff is the base of the capped exponential backoff between
	// retry attempts: attempt n waits min(RetryBackoff << n, 8*RetryBackoff).
	// Default 250ms.
	RetryBackoff time.Duration
	// TraceEntries bounds how many per-run request traces are kept live for
	// GET /v1/runs/{id}/trace (default 256, FIFO-evicted).
	TraceEntries int
	// JobTimeout caps each job's wall-clock time on top of whatever the
	// spec's own timeout_ms asks for (0 = none).
	JobTimeout time.Duration
	// Metrics receives job and cycle accounting; nil creates a fresh sink.
	Metrics *obs.Metrics
	// Log receives one structured record per job transition; nil discards.
	Log *slog.Logger
}

// Result is the stored outcome of one run — the unit the cache holds and
// POST/GET hand back under "result".
type Result struct {
	ResultVersion int           `json:"result_version"`
	Spec          *spec.RunSpec `json:"spec"`
	Digest        string        `json:"digest"`
	// TraceID is the trace the original computation ran under; replays from
	// cache return it unchanged, tying the bytes back to the first request.
	TraceID     string      `json:"trace_id,omitempty"`
	Stats       *stats.Sim  `json:"stats"`
	Events      []obs.Event `json:"events,omitempty"`
	EventsTotal uint64      `json:"events_total,omitempty"`
	// Intervals is the windowed-telemetry summary when the spec asked for it
	// (observe.interval_insts > 0), served by GET /v1/runs/{id}/intervals.
	Intervals *interval.Set `json:"intervals,omitempty"`
	// Timings is the marshaled Timings breakdown of the original
	// computation by hop and phase; like WallMS it replays from cache
	// unchanged.
	Timings json.RawMessage `json:"timings,omitempty"`
	// Retries is how many failed attempts preceded this result — non-zero
	// only when the automatic retry policy rescued the run.
	Retries int `json:"retries,omitempty"`
	// Resources is the per-run resource attribution (CPU, allocs, GC, wait
	// breakdown) measured around the original computation; replays from
	// cache return the original record unchanged.
	Resources *obs.Resources `json:"resources,omitempty"`
	// WallMS is the wall-clock time of the original computation; replays
	// from cache return it unchanged (responses are byte-identical).
	WallMS int64 `json:"wall_ms"`
}

// job is one submitted spec moving through the queue.
type job struct {
	spec     *spec.RunSpec // canonical
	digest   string
	tc       obs.TraceContext // trace context of the enqueuing request
	submit   time.Time        // when the HTTP request arrived
	enqueue  time.Time        // when the job entered the queue
	admitSeq uint64           // admission order, for approximate queue position
	started  atomic.Bool
	rec      *interval.Recorder // the run's telemetry, behind /v1/runs/{id}/progress
	done     chan struct{}
}

// newJob builds the queue entry for a canonical spec, with the recorder its
// run feeds: windows as the spec asks, and cycle/instruction deltas on the
// server's metrics.
func (s *Server) newJob(sp *spec.RunSpec, digest string, tc obs.TraceContext, submit time.Time) *job {
	return &job{spec: sp, digest: digest, tc: tc, submit: submit,
		rec: interval.NewRecorder(sp.Observe.IntervalInsts, s.met), done: make(chan struct{})}
}

// Server is the daemon state: worker pool, bounded queue, in-flight dedup
// table, the result cache, the durable run journal, and the per-run trace
// store.
type Server struct {
	cfg    Config
	met    *obs.Metrics
	log    *slog.Logger
	build  obs.Build
	traces *traceStore

	queue   chan *job
	wg      sync.WaitGroup
	results *cache
	jnl     *journal     // nil = unjournaled
	pending []pendingRun // accepted-but-incomplete runs recovered at startup

	start     time.Time     // process-facing uptime clock for /statusz
	admitted  atomic.Uint64 // jobs ever enqueued (admission sequence)
	startedCt atomic.Uint64 // jobs ever picked up by a worker

	mu        sync.Mutex
	draining  bool
	jobs      map[string]*job        // digest → in-flight job (the singleflight table)
	failures  map[string]*runFailure // digest → record of the most recent failed run
	failOrder []string               // FIFO bound on failures
}

// runFailure is what the failure FIFO remembers about a failed run: the
// error, the resource attribution of the last attempt, and the flight
// recorder's tail at failure time — enough to debug without reproducing.
type runFailure struct {
	msg       string
	retries   int
	resources *obs.Resources
	flight    []obs.FlightRecord
}

// New builds a Server, replaying the run journal when one is configured;
// call Start to launch the workers (and re-enqueue the replayed runs) and
// Handler to mount the API.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.TraceEntries <= 0 {
		cfg.TraceEntries = 256
	}
	switch {
	case cfg.JobRetries == 0:
		cfg.JobRetries = 2
	case cfg.JobRetries < 0:
		cfg.JobRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.JournalPath == "" && cfg.CacheDir != "" {
		cfg.JournalPath = filepath.Join(cfg.CacheDir, "journal.wal")
	}
	s := &Server{
		cfg:      cfg,
		met:      cfg.Metrics,
		log:      cfg.Log,
		build:    obs.BuildInfo(),
		traces:   newTraceStore(cfg.TraceEntries),
		start:    time.Now(),
		queue:    make(chan *job, cfg.QueueLen),
		results:  newCache(cfg.CacheEntries, cfg.CacheDir, fmt.Sprintf(".r%d.json", resultVersion)),
		jobs:     make(map[string]*job),
		failures: make(map[string]*runFailure),
	}
	s.results.onCorrupt = func(path, reason string) {
		s.met.AddCacheCorrupt(1)
		s.log.Warn("cache: quarantined corrupt entry",
			"path", path+".corrupt", "reason", reason)
	}
	if cfg.JournalPath != "" {
		jnl, pending, skipped, err := openJournal(cfg.JournalPath, s.log)
		if err != nil {
			return nil, err
		}
		s.jnl, s.pending = jnl, pending
		s.met.AddJournalSkipped(uint64(skipped))
		if len(pending) > 0 || skipped > 0 {
			s.log.Info("journal: recovered state",
				"path", cfg.JournalPath, "pending", len(pending), "skipped_records", skipped)
		}
	}
	return s, nil
}

// Metrics returns the server's telemetry sink.
func (s *Server) Metrics() *obs.Metrics { return s.met }

// Start launches the worker pool and, when journal replay found runs that
// were accepted before a crash but never completed, re-enqueues them in the
// background through the normal admission bookkeeping.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(s.pending) > 0 {
		go s.replayPending()
	}
}

// replayPending re-enqueues journal-recovered runs.  A digest whose result
// already sits in the cache only lost its done record — it is settled, not
// re-run.  Enqueueing respects the same bounds as live submissions: it never
// overtakes the queue capacity (it waits instead) and stops when draining
// begins (the journal keeps the accepted records for the next start).
func (s *Server) replayPending() {
	for _, p := range s.pending {
		if _, hit := s.results.get(p.digest); hit {
			s.jnl.append(jrec{Type: recDone, Digest: p.digest})
			s.log.Info("journal: pending run already cached",
				"run_digest", p.digest, "phase", "replay")
			continue
		}
		j := s.newJob(p.spec, p.digest, obs.NewTraceContext(), time.Now())
		for {
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				return
			}
			if _, ok := s.jobs[p.digest]; ok {
				s.mu.Unlock() // a client beat the replay to resubmitting it
				break
			}
			j.enqueue = time.Now()
			enqueued := false
			select {
			case s.queue <- j:
				j.admitSeq = s.admitted.Add(1)
				s.jobs[p.digest] = j
				delete(s.failures, p.digest)
				enqueued = true
			default: // queue full of live traffic; yield and retry
			}
			s.mu.Unlock()
			if enqueued {
				s.met.AddJournalReplayed(1)
				s.log.Info("run requeued from journal",
					"run_digest", p.digest, "phase", "replay",
					"topology", p.spec.Topology, "workload", p.spec.Workload)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// Shutdown drains the server: no new submissions are accepted, queued jobs
// run to completion, and Shutdown returns when the last worker is idle — or
// when ctx expires, in which case queued-but-unstarted work is abandoned and
// ctx.Err() is returned (the journal still holds their accepted records, so
// the next start re-enqueues them).  After a clean drain the journal is
// fsynced and closed with every accepted digest marked complete, so an
// immediate restart replays exactly zero runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.jnl.close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one spec through runner.Exec (panic containment, metrics
// accounting) under Config.JobTimeout and publishes the outcome, retrying
// a failed execution up to Config.JobRetries times with capped exponential
// backoff before it lands in the failure FIFO.  The hops — queue wait,
// worker, render, cache write — each get a span on the job's trace; the
// runner parents the exec span (and spec.Exec's phase spans) under the
// worker span it is handed.  Journal choreography: the terminal done/failed
// record is appended only after the cache holds the result — so a crash at
// any instant, mid-retry included, leaves the accepted digest pending and
// replay re-executes it.
func (s *Server) runJob(j *job) {
	j.started.Store(true)
	s.startedCt.Add(1)
	pickup := time.Now()
	rec := s.traces.lookup(j.digest) // nil after eviction: spans become no-ops
	rec.Record(j.tc, "queue", "queue.wait", j.enqueue, pickup, nil)
	queueWait := pickup.Sub(j.enqueue)
	s.met.ObserveQueueWait(queueWait)

	var (
		tmg       Timings
		res       *obs.Resources
		err       error
		attempt   int
		retryWait time.Duration
	)
	for {
		tmg, res, err = s.execAttempt(j, rec, pickup, queueWait, retryWait, attempt)
		if err == nil {
			s.jnl.append(jrec{Type: recDone, Digest: j.digest})
			break
		}
		if attempt >= s.cfg.JobRetries {
			s.jnl.append(jrec{Type: recFailed, Digest: j.digest, Retries: attempt, Error: err.Error()})
			break
		}
		backoff := retryBackoff(s.cfg.RetryBackoff, attempt)
		s.met.AddJobRetries(1)
		s.log.Warn("run retrying",
			"run_digest", j.digest, "trace_id", j.tc.TraceIDString(), "phase", "retry",
			"attempt", attempt+1, "of", s.cfg.JobRetries, "backoff_ms", ms(backoff),
			"error", err.Error())
		time.Sleep(backoff)
		retryWait += backoff
		attempt++
	}
	s.mu.Lock()
	if err != nil {
		s.recordFailureLocked(j.digest, &runFailure{
			msg: err.Error(), retries: attempt, resources: res,
			flight: obs.Flight().Tail(32),
		})
	}
	delete(s.jobs, j.digest)
	s.mu.Unlock()
	if err != nil {
		j.rec.SetPhase(obs.PhaseFailed)
	} else {
		j.rec.SetPhase(obs.PhaseDone)
	}
	close(j.done)
	s.met.ObserveRequestEx(time.Since(j.submit), false, j.tc.TraceIDString())
	if err != nil {
		s.log.Error("run failed",
			"run_digest", j.digest, "trace_id", j.tc.TraceIDString(), "phase", "failed",
			"queue_wait_ms", ms(queueWait), "total_ms", ms(time.Since(j.submit)),
			"retries", attempt, "error", err.Error())
	} else {
		s.log.Info("run done",
			"run_digest", j.digest, "trace_id", j.tc.TraceIDString(), "phase", "done",
			"queue_wait_ms", ms(queueWait), "exec_ms", tmg.ExecMS,
			"simulate_ms", tmg.SimulateMS, "total_ms", ms(time.Since(j.submit)),
			"retries", attempt)
	}
}

// retryBackoff is the wait before re-executing a failed job: capped
// exponential, base << attempt bounded at 8× base.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	d := base << min(attempt, 3)
	if max := 8 * base; d > max {
		d = max
	}
	return d
}

// execAttempt runs one execution attempt — with the resource meter wrapped
// around runner.Exec, so the attribution record covers failures too —
// and, on success, renders the Result (carrying the attempt count as its
// retries field and the attribution record) and publishes it to the cache.
func (s *Server) execAttempt(j *job, rec *obs.SpanRecorder, pickup time.Time, queueWait, retryWait time.Duration, attempt int) (Timings, *obs.Resources, error) {
	wspan := rec.Start(j.tc, "worker", "worker")
	if attempt > 0 {
		wspan.SetAttr("attempt", fmt.Sprint(attempt))
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	meter := obs.StartResourceMeter(0)
	s.met.AddJobs(1)
	res, err := runner.Exec(j.spec, spec.Attach{Ctx: ctx, Metrics: s.met, Span: wspan, Recorder: j.rec})
	cancel()
	resources := meter.Stop()
	resources.QueueWaitMS = float64(queueWait.Microseconds()) / 1000
	resources.RetryWaitMS = float64(retryWait.Microseconds()) / 1000
	resources.Attempts = attempt + 1
	s.met.ObserveRunResources(resources)
	wspan.End()
	if err != nil {
		return Timings{}, &resources, err
	}
	out := res.Outcome
	tmg := Timings{QueueWaitMS: ms(queueWait), ExecMS: ms(res.Wall), Timings: out.Timings}
	renderStart := time.Now()
	timings, merr := json.Marshal(tmg)
	var data []byte
	if merr == nil {
		data, merr = json.Marshal(Result{
			ResultVersion: resultVersion,
			Spec:          res.Spec,
			Digest:        j.digest,
			TraceID:       j.tc.TraceIDString(),
			Stats:         out.Stats,
			Events:        out.Events,
			EventsTotal:   out.EventsTotal,
			Intervals:     out.Intervals,
			Timings:       timings,
			Retries:       attempt,
			Resources:     &resources,
			WallMS:        time.Since(pickup).Milliseconds(),
		})
	}
	rec.Record(j.tc, "render", "render", renderStart, time.Now(), nil)
	if merr != nil {
		return tmg, &resources, merr
	}
	writeStart := time.Now()
	s.results.put(j.digest, data)
	rec.Record(j.tc, "cache", "cache.write", writeStart, time.Now(),
		map[string]string{"bytes": fmt.Sprint(len(data))})
	return tmg, &resources, nil
}

// recordFailureLocked remembers a failed digest (bounded FIFO) so GET can
// report what went wrong — with the last attempt's resource attribution and
// the flight-recorder tail; failures are never served from cache.
func (s *Server) recordFailureLocked(digest string, f *runFailure) {
	if _, ok := s.failures[digest]; !ok {
		s.failOrder = append(s.failOrder, digest)
		for len(s.failOrder) > 128 {
			delete(s.failures, s.failOrder[0])
			s.failOrder = s.failOrder[1:]
		}
	}
	s.failures[digest] = f
}

// Handler mounts the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/intervals", s.handleIntervals)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/runs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metrics", s.met.Handler(s.expo))
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	obs.RegisterDebug(mux) // /debug/pprof/*, /debug/flight
	return mux
}

// Status is the envelope every /v1/runs response uses — the one
// declaration the daemon writes and internal/client decodes.
type Status struct {
	Digest  string          `json:"digest"`
	Status  string          `json:"status"` // queued, running, done, failed
	Cached  bool            `json:"cached,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Resources and Flight accompany failed runs: the last attempt's resource
	// attribution and the flight-recorder tail captured at failure time.
	Resources *obs.Resources     `json:"resources,omitempty"`
	Flight    []obs.FlightRecord `json:"flight,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	tc, _ := traceContextFrom(r)
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if err := sp.Canonicalize(); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	digest, err := sp.Digest()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	// Traces are keyed by digest; the recorder is rooted at the first
	// submitter's context, and every request (original, coalesced, cache
	// hit) appends spans carrying its own trace ID.
	rec := s.traces.intern(digest, tc, 0)
	rec.Record(tc, "admission", "admission", reqStart, time.Now(),
		map[string]string{"digest": digest})

	lookupStart := time.Now()
	raw, hit := s.results.get(digest)
	if hit {
		rec.Record(tc, "cache", "cache.lookup", lookupStart, time.Now(),
			map[string]string{"result": "hit"})
		// The replay's "execution" is the cache serve itself — a near-zero
		// span on the exec track, so hit and miss traces compare directly.
		rec.Record(tc, "exec", "exec", lookupStart, time.Now(),
			map[string]string{"cached": "true"})
		rec.Record(tc, "http", "POST /v1/runs", reqStart, time.Now(),
			map[string]string{"status": "200"})
		s.met.ObserveRequestEx(time.Since(reqStart), true, tc.TraceIDString())
		s.log.Info("run served from cache",
			"run_digest", digest, "trace_id", tc.TraceIDString(), "phase", "cache_hit",
			"total_ms", ms(time.Since(reqStart)))
		writeJSON(w, http.StatusOK, Status{
			Digest: digest, Status: "done", Cached: true,
			TraceID: tc.TraceIDString(), Result: raw,
		})
		return
	}
	rec.Record(tc, "cache", "cache.lookup", lookupStart, time.Now(),
		map[string]string{"result": "miss"})
	s.mu.Lock()
	if j, ok := s.jobs[digest]; ok {
		// Identical spec already in flight: coalesce instead of re-running.
		status := statusOf(j)
		s.mu.Unlock()
		rec.Record(tc, "singleflight", "coalesce", reqStart, time.Now(),
			map[string]string{"status": status})
		rec.Record(tc, "http", "POST /v1/runs", reqStart, time.Now(),
			map[string]string{"status": "202"})
		w.Header().Set("Location", "/v1/runs/"+digest)
		writeJSON(w, http.StatusAccepted, Status{
			Digest: digest, Status: status, TraceID: tc.TraceIDString(),
		})
		return
	}
	if s.draining {
		s.mu.Unlock()
		rec.Record(tc, "http", "POST /v1/runs", reqStart, time.Now(),
			map[string]string{"status": "503"})
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	j := s.newJob(sp, digest, tc, reqStart)
	j.enqueue = time.Now()
	select {
	case s.queue <- j:
		j.admitSeq = s.admitted.Add(1)
		s.jobs[digest] = j
		delete(s.failures, digest) // a resubmission supersedes an old failure
		s.mu.Unlock()
		// Journal the admission durably (fsynced) before the 202 goes out:
		// once a client has seen its run accepted, no crash may lose it.
		if raw, merr := json.Marshal(sp); merr == nil {
			s.jnl.append(jrec{Type: recAccepted, Digest: digest, Spec: raw})
		} else {
			s.log.Error("journal: marshaling accepted spec",
				"run_digest", digest, "error", merr.Error())
		}
		rec.Record(tc, "http", "POST /v1/runs", reqStart, time.Now(),
			map[string]string{"status": "202"})
		s.log.Info("run queued",
			"run_digest", digest, "trace_id", tc.TraceIDString(), "phase", "queued",
			"topology", sp.Topology, "workload", sp.Workload, "insts", sp.Insts)
		w.Header().Set("Location", "/v1/runs/"+digest)
		writeJSON(w, http.StatusAccepted, Status{
			Digest: digest, Status: "queued", TraceID: tc.TraceIDString(),
		})
	default:
		s.mu.Unlock()
		rec.Record(tc, "http", "POST /v1/runs", reqStart, time.Now(),
			map[string]string{"status": "429"})
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue full (%d pending)", s.cfg.QueueLen)
	}
}

func statusOf(j *job) string {
	if j.started.Load() {
		return "running"
	}
	return "queued"
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validDigest(id) {
		writeError(w, http.StatusBadRequest, "malformed digest %q", id)
		return
	}
	s.mu.Lock()
	j, inflight := s.jobs[id]
	fail, failed := s.failures[id]
	s.mu.Unlock()
	if inflight {
		writeJSON(w, http.StatusOK, Status{Digest: id, Status: statusOf(j)})
		return
	}
	if raw, ok := s.results.get(id); ok {
		writeJSON(w, http.StatusOK, Status{Digest: id, Status: "done", Cached: true, Result: raw})
		return
	}
	if failed {
		writeJSON(w, http.StatusOK, Status{
			Digest: id, Status: "failed", Error: fail.msg,
			Resources: fail.resources, Flight: fail.flight,
		})
		return
	}
	writeError(w, http.StatusNotFound, "unknown run %s", id)
}

// finished returns the digest the request names and its finished run's
// Result, or writes the 400, 404 or 500 that says why there is none.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) (string, *Result) {
	id := r.PathValue("id")
	if !validDigest(id) {
		writeError(w, http.StatusBadRequest, "malformed digest %q", id)
		return id, nil
	}
	raw, ok := s.results.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no finished run %s", id)
		return id, nil
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		writeError(w, http.StatusInternalServerError, "corrupt result: %v", err)
		return id, nil
	}
	return id, &res
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, res := s.finished(w, r)
	if res == nil {
		return
	}
	if !res.Spec.Observe.Events {
		writeError(w, http.StatusNotFound, "run %s did not capture events (set observe.events)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"digest": id, "events_total": res.EventsTotal, "events": res.Events,
	})
}

// handleIntervals serves a finished run's windowed interval telemetry: JSON
// by default, or the CBRAIVL1 binary encoding with ?format=binary (or an
// application/octet-stream Accept header) — the same bytes the set's
// content hash covers, so a client can verify the hash end to end.
func (s *Server) handleIntervals(w http.ResponseWriter, r *http.Request) {
	id, res := s.finished(w, r)
	if res == nil {
		return
	}
	if res.Intervals == nil {
		writeError(w, http.StatusNotFound, "run %s did not record intervals (set observe.interval_insts)", id)
		return
	}
	if r.URL.Query().Get("format") == "binary" ||
		strings.Contains(r.Header.Get("Accept"), "application/octet-stream") {
		data, err := res.Intervals.Encode()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding intervals: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data) //nolint:errcheck
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"digest": id, "intervals": res.Intervals,
	})
}

// handleTrace serves the request trace of a run as Chrome trace_event JSON
// (load it in Perfetto or chrome://tracing).  Traces live in a bounded
// in-memory store: a run submitted before the last restart, or evicted by
// newer traffic, answers 404 even though its result may still be cached.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validDigest(id) {
		writeError(w, http.StatusBadRequest, "malformed digest %q", id)
		return
	}
	rec := s.traces.lookup(id)
	if rec == nil {
		writeError(w, http.StatusNotFound, "no trace for run %s (not submitted here, or evicted)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeSpans(w, rec.Spans()) //nolint:errcheck
}

// health assembles the status document /healthz and /healthz/ready share.
func (s *Server) health() map[string]any {
	s.mu.Lock()
	inflight := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	return map[string]any{
		"status":   status,
		"queued":   len(s.queue),
		"inflight": inflight,
		"workers":  s.cfg.Workers,
		"cached":   s.results.len(),
		"traces":   s.traces.len(),
		"draining": draining,
		"build":    s.build,
	}
}

// handleHealth is liveness: 200 whenever the process can answer at all,
// draining included — restarting a draining server would lose queued work.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReady is readiness: 503 while draining so load balancers stop
// routing new submissions, 200 otherwise.  Same document as /healthz.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h["draining"] == true {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// expo appends the daemon's own families to the /metrics exposition.
func (s *Server) expo(x *obs.Expo) {
	s.mu.Lock()
	inflight := len(s.jobs)
	failures := len(s.failures)
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	x.Gauge("cobra_serve_queue_depth", "Jobs waiting in the bounded queue.", len(s.queue))
	x.Gauge("cobra_serve_inflight", "Jobs admitted and not yet finished.", inflight)
	x.Gauge("cobra_serve_cache_entries", "In-memory result cache entries.", s.results.len())
	x.Gauge("cobra_serve_failures", "Entries in the bounded failure FIFO.", failures)
	x.Gauge("cobra_serve_draining", "1 while the server is draining, 0 otherwise.", draining)
	x.Gauge("cobra_serve_trace_entries", "Per-run request traces held live.", s.traces.len())
	x.Counter("cobra_serve_span_drops_total", "Request spans discarded to per-run buffer bounds.", s.traces.droppedTotal())
	x.Gauge(fmt.Sprintf("go_build_info{path=%q,version=%q,checksum=\"\"}", s.build.Path, s.build.Version),
		"Build information about the main Go module.", 1)
	x.Gauge(fmt.Sprintf("cobra_build_info{goversion=%q,revision=%q,dirty=\"%t\"}", s.build.GoVersion, s.build.Revision, s.build.Dirty),
		"Build identity of this binary.", 1)
}
