package serve

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
)

// This file is the live-introspection surface of the daemon: the per-run
// progress stream (SSE with a plain-JSON long-poll fallback) and the human
// /statusz page.  Both read each job's interval.Recorder, the one telemetry
// sink its core feeds on the 8192-cycle flush, so watching a run costs the
// simulation nothing measurable and the terminal frame carries the run's
// final totals.

// jobEvent is the current frame of an admitted job, read from its recorder.
// While the run records interval telemetry the frame carries the most
// recently closed window, so a live watcher sees time-resolved IPC/MPKI
// while the simulation is still in flight.
func (s *Server) jobEvent(j *job) interval.Progress {
	ev := j.rec.Snap()
	ev.Digest = j.digest
	if ev.Done {
		ev.Status = ev.Phase // done or failed
	} else {
		ev.Status = statusOf(j)
		ev.QueuePos = s.queuePos(j)
	}
	return ev
}

// cachedEvent is the terminal frame of a run that finished before the
// request: its totals and last window are the cached result's own, so they
// equal what the live stream's final frame carried.
func cachedEvent(id string, raw []byte) interval.Progress {
	ev := interval.Progress{Digest: id, Status: "done", Phase: obs.PhaseDone.String(), Done: true}
	var res Result
	if json.Unmarshal(raw, &res) != nil {
		return ev
	}
	if res.Stats != nil {
		ev.Cycles, ev.Insts = res.Stats.Cycles, res.Stats.Instructions
	}
	if res.Intervals != nil && len(res.Intervals.Windows) > 0 {
		ev.Window = &res.Intervals.Windows[len(res.Intervals.Windows)-1]
	}
	return ev
}

// queuePos approximates a queued job's position: its admission sequence
// number minus how many jobs workers have picked up.  Approximate by design —
// coalesced resubmissions and multi-worker pickup reorder the tail — but
// monotone enough to watch a queue drain.
func (s *Server) queuePos(j *job) int {
	if j.started.Load() {
		return 0
	}
	pos := int64(j.admitSeq) - int64(s.startedCt.Load())
	if pos < 1 {
		pos = 1
	}
	return int(pos)
}

// snapshotRun assembles the current progress frame for a digest, with the
// in-flight job it was read from (nil once the run has finished), reporting
// whether the digest is known at all.
func (s *Server) snapshotRun(id string) (interval.Progress, *job, bool) {
	s.mu.Lock()
	j, inflight := s.jobs[id]
	_, failed := s.failures[id]
	s.mu.Unlock()
	if inflight {
		return s.jobEvent(j), j, true
	}
	if raw, ok := s.results.get(id); ok {
		return cachedEvent(id, raw), nil, true
	}
	if failed {
		return interval.Progress{Digest: id, Status: "failed", Phase: obs.PhaseFailed.String(), Done: true}, nil, true
	}
	return interval.Progress{}, nil, false
}

// handleProgress serves GET /v1/runs/{id}/progress.  Clients that accept
// text/event-stream get Server-Sent Events roughly every 200ms (and
// immediately on terminal state), ending after the final frame.  Frames are
// named: `event: queued` keepalives while the job waits behind the queue
// (so long-poll clients behind a deep queue never time out idle), `event:
// progress` while it runs, and a terminal `event: done` (which also carries
// failed status).  Clients that only parse `data:` lines see the exact
// pre-naming stream.  Everyone else gets one JSON snapshot — the long-poll
// fallback; poll it at whatever cadence suits.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validDigest(id) {
		writeError(w, http.StatusBadRequest, "malformed digest %q", id)
		return
	}
	ev, j, known := s.snapshotRun(id)
	if !known {
		writeError(w, http.StatusNotFound, "unknown run %s", id)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush || !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		writeJSON(w, http.StatusOK, ev)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	// eventName maps a frame to its SSE event type: terminal frames are
	// "done", frames for a job still waiting in the queue are "queued"
	// keepalives, everything else is "progress".
	eventName := func(ev *interval.Progress) string {
		if ev.Done {
			return "done"
		}
		if ev.Status == "queued" {
			return "queued"
		}
		return "progress"
	}
	emit := func(ev interval.Progress) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", eventName(&ev), data)
		flusher.Flush()
	}
	emit(ev)
	if ev.Done { // a finished run's frame is always terminal
		return
	}

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done: // the recorder now holds the final phase and totals
			emit(s.jobEvent(j))
			return
		case <-tick.C:
			emit(s.jobEvent(j))
		}
	}
}

// statuszDoc is the machine form of /statusz (?json=1), so scripts and CI can
// assert on the same numbers the human page shows.
type statuszDoc struct {
	Status        string              `json:"status"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Build         obs.Build           `json:"build"`
	Workers       int                 `json:"workers"`
	QueueDepth    int                 `json:"queue_depth"`
	QueueCap      int                 `json:"queue_cap"`
	Draining      bool                `json:"draining"`
	Runs          []interval.Progress `json:"runs"`
	CacheEntries  int                 `json:"cache_entries"`
	CacheHits     uint64              `json:"cache_hits"`
	CacheMisses   uint64              `json:"cache_misses"`
	CacheHitRate  float64             `json:"cache_hit_rate"`
	Failures      int                 `json:"failures"`
	JournalPath   string              `json:"journal_path,omitempty"`
	JournalReplay uint64              `json:"journal_replayed"`
	JournalSkips  uint64              `json:"journal_records_skipped"`
	FlightTotal   uint64              `json:"flight_total"`
	FlightCap     int                 `json:"flight_cap"`
}

func (s *Server) statusz() statuszDoc {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	failures := len(s.failures)
	draining := s.draining
	s.mu.Unlock()

	doc := statuszDoc{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         s.build,
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.QueueLen,
		Draining:      draining,
		Runs:          make([]interval.Progress, 0, len(jobs)),
		CacheEntries:  s.results.len(),
		CacheHits:     s.met.RequestCount(true),
		CacheMisses:   s.met.RequestCount(false),
		Failures:      failures,
		JournalPath:   s.cfg.JournalPath,
	}
	if draining {
		doc.Status = "draining"
	}
	if total := doc.CacheHits + doc.CacheMisses; total > 0 {
		doc.CacheHitRate = float64(doc.CacheHits) / float64(total)
	}
	snap := s.met.Snap()
	doc.JournalReplay = snap.JournalReplayed
	doc.JournalSkips = snap.JournalSkipped
	if f := obs.Flight(); f != nil {
		doc.FlightTotal = f.Total()
		doc.FlightCap = f.Cap()
	}
	for _, j := range jobs {
		doc.Runs = append(doc.Runs, s.jobEvent(j))
	}
	// Deterministic ordering for the page and for tests: running first (by
	// ascending queue position), then queued.
	for i := 1; i < len(doc.Runs); i++ {
		for k := i; k > 0 && doc.Runs[k].QueuePos < doc.Runs[k-1].QueuePos; k-- {
			doc.Runs[k], doc.Runs[k-1] = doc.Runs[k-1], doc.Runs[k]
		}
	}
	return doc
}

// handleStatusz serves the human status page: an HTML summary of in-flight
// runs, queue depth, cache hit rate, and journal state.  ?json=1 returns the
// same document as JSON.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	doc := s.statusz()
	if r.URL.Query().Get("json") == "1" {
		writeJSON(w, http.StatusOK, doc)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>cobra-serve statusz</title>" +
		"<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}" +
		"td,th{border:1px solid #999;padding:4px 8px;text-align:left}" +
		"h1{font-size:1.3em}</style></head><body>")
	fmt.Fprintf(&b, "<h1>cobra-serve — %s</h1>", html.EscapeString(doc.Status))
	fmt.Fprintf(&b, "<p>uptime %.0fs · go %s · rev %s</p>",
		doc.UptimeSeconds, html.EscapeString(doc.Build.GoVersion), html.EscapeString(doc.Build.Revision))
	fmt.Fprintf(&b, "<p>workers %d · queue %d/%d · cache %d entries "+
		"(%d hits / %d misses, %.0f%% hit rate) · %d failures</p>",
		doc.Workers, doc.QueueDepth, doc.QueueCap, doc.CacheEntries,
		doc.CacheHits, doc.CacheMisses, doc.CacheHitRate*100, doc.Failures)
	if doc.JournalPath != "" {
		fmt.Fprintf(&b, "<p>journal %s · %d replayed · %d records skipped</p>",
			html.EscapeString(doc.JournalPath), doc.JournalReplay, doc.JournalSkips)
	}
	fmt.Fprintf(&b, "<p>flight recorder: %d records total (ring cap %d) — <a href=\"/debug/flight\">/debug/flight</a></p>",
		doc.FlightTotal, doc.FlightCap)
	fmt.Fprintf(&b, "<h1>in-flight runs (%d)</h1>", len(doc.Runs))
	if len(doc.Runs) > 0 {
		b.WriteString("<table><tr><th>digest</th><th>status</th><th>phase</th>" +
			"<th>cycles</th><th>insts</th><th>insts/s</th><th>elapsed</th><th>queue pos</th></tr>")
		for _, ev := range doc.Runs {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td>"+
				"<td>%.0f</td><td>%dms</td><td>%d</td></tr>",
				html.EscapeString(ev.Digest), html.EscapeString(ev.Status),
				html.EscapeString(ev.Phase), ev.Cycles, ev.Insts,
				ev.InstsPerSec, ev.ElapsedMS, ev.QueuePos)
		}
		b.WriteString("</table>")
	}
	b.WriteString("</body></html>")
	fmt.Fprint(w, b.String()) //nolint:errcheck
}
