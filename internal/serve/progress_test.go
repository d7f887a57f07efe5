package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/stats"
)

// TestProgressSnapshotFallback: clients that don't ask for an event stream
// get a single JSON snapshot, and unknown digests 404.
func TestProgressSnapshotFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, rs := postSpec(t, ts, smallSpec(60))
	waitDone(t, ts, rs.Digest)

	resp, err := http.Get(ts.URL + "/v1/runs/" + rs.Digest + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress snapshot: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "event-stream") {
		t.Fatalf("plain GET answered with an event stream (%q)", ct)
	}
	var ev interval.Progress
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Digest != rs.Digest || ev.Status != "done" || !ev.Done || ev.Phase != "done" {
		t.Fatalf("terminal snapshot = %+v", ev)
	}
	// A snapshot taken after the run finished reads the cached result.
	if st := resultStats(t, waitDone(t, ts, rs.Digest)); ev.Cycles != st.Cycles || ev.Insts != st.Instructions {
		t.Fatalf("late terminal snapshot reads %d cycles / %d insts, result %d / %d",
			ev.Cycles, ev.Insts, st.Cycles, st.Instructions)
	}

	bad, err := http.Get(ts.URL + "/v1/runs/sha256:" + strings.Repeat("0", 64) + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body) //nolint:errcheck
	bad.Body.Close()
	if bad.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest progress: HTTP %d, want 404", bad.StatusCode)
	}
}

// TestProgressStream: an SSE client watching a live run sees advancing
// frames and a final done frame, and the simulate-phase frames carry cycle
// counts fed by the core's flush path.
func TestProgressStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, rs := postSpec(t, ts, slowSpec(61))

	req, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+rs.Digest+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content-type = %q, want event stream", ct)
	}

	var (
		frames []interval.Progress
		sc     = bufio.NewScanner(resp.Body)
	)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev interval.Progress
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, ev)
		if ev.Done {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("stream produced no frames")
	}
	last := frames[len(frames)-1]
	if !last.Done || last.Status != "done" {
		t.Fatalf("stream did not end on a terminal frame: %+v", last)
	}
	// Cycle counts must be monotone non-decreasing, the terminal frame
	// included: it carries the run's final totals.
	var prev uint64
	sawCycles := false
	for _, ev := range frames {
		if ev.Cycles > 0 {
			sawCycles = true
		}
		if ev.Cycles < prev {
			t.Fatalf("cycle count went backwards: %d after %d", ev.Cycles, prev)
		}
		prev = ev.Cycles
	}
	if !sawCycles {
		t.Error("no frame carried a cycle count; core flush not feeding the sink")
	}
	st := resultStats(t, waitDone(t, ts, rs.Digest))
	if last.Cycles != st.Cycles || last.Insts != st.Instructions {
		t.Fatalf("terminal frame reads %d cycles / %d insts, result %d / %d",
			last.Cycles, last.Insts, st.Cycles, st.Instructions)
	}
}

// resultStats decodes the counters of a finished run's result.
func resultStats(t *testing.T, rs Status) *stats.Sim {
	t.Helper()
	var res Result
	if err := json.Unmarshal(rs.Result, &res); err != nil || res.Stats == nil {
		t.Fatalf("run %s has no result stats (%v): %s", rs.Digest, err, rs.Result)
	}
	return res.Stats
}

// TestResultCarriesResources: result_version is 5 and the stored result
// includes the per-run resource-attribution record.
func TestResultCarriesResources(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, rs := postSpec(t, ts, smallSpec(62))
	done := waitDone(t, ts, rs.Digest)
	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.ResultVersion != 5 {
		t.Fatalf("result_version = %d, want 5", res.ResultVersion)
	}
	if res.Resources == nil {
		t.Fatal("result carries no resource attribution")
	}
	r := res.Resources
	if r.AllocBytes == 0 || r.AllocObjects == 0 || r.WallMS <= 0 || r.Attempts != 1 {
		t.Errorf("implausible attribution: %+v", r)
	}
	if r.QueueWaitMS < 0 || r.GCPauseShare < 0 || r.GCPauseShare > 1 {
		t.Errorf("implausible attribution: %+v", r)
	}
}

// TestFailedRunCarriesPostMortem: a failed run's status reports the resource
// attribution of the last attempt and the flight-recorder tail.
func TestFailedRunCarriesPostMortem(t *testing.T) {
	obs.EnableFlight(0) // the daemon arms this via its logger; tests do it here
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Millisecond})
	_, rs := postSpec(t, ts, slowSpec(63))
	done := waitDone(t, ts, rs.Digest)
	if done.Status != "failed" {
		t.Fatalf("run did not fail: %+v", done)
	}
	if done.Resources == nil || done.Resources.WallMS <= 0 {
		t.Errorf("failed run carries no resource attribution: %+v", done.Resources)
	}
	if len(done.Flight) == 0 {
		t.Error("failed run carries no flight-recorder tail")
	}
}

// TestStatusz: the human page renders and ?json=1 exposes the same numbers
// machine-readably.
func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, rs := postSpec(t, ts, smallSpec(64))
	waitDone(t, ts, rs.Digest)
	postSpec(t, ts, smallSpec(64)) // mint a cache hit

	resp, err := http.Get(ts.URL + "/statusz?json=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc statuszDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Workers != 2 || doc.UptimeSeconds <= 0 {
		t.Errorf("statusz doc = %+v", doc)
	}
	if doc.CacheHits != 1 || doc.CacheMisses != 1 || doc.CacheHitRate != 0.5 {
		t.Errorf("cache accounting: hits=%d misses=%d rate=%v",
			doc.CacheHits, doc.CacheMisses, doc.CacheHitRate)
	}
	if doc.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", doc.CacheEntries)
	}

	html, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer html.Body.Close()
	body, _ := io.ReadAll(html.Body)
	if ct := html.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("statusz content-type = %q", ct)
	}
	for _, want := range []string{"cobra-serve", "flight recorder", "hit rate"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("statusz page missing %q", want)
		}
	}
}

// TestStatuszShowsInflight: a queued/running job appears in the runs table.
func TestStatuszShowsInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, rs := postSpec(t, ts, slowSpec(65))
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := s.statusz()
		if len(doc.Runs) > 0 {
			if doc.Runs[0].Digest != rs.Digest {
				t.Fatalf("statusz run digest = %s, want %s", doc.Runs[0].Digest, rs.Digest)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight run never appeared on statusz")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDone(t, ts, rs.Digest)
}

// TestDiskCacheV3AgesOut: entries written under result_version 3 filenames
// are invisible to a v4 server — the run misses, recomputes, and the fresh
// result lands beside (not on top of) the stale file.  Mirrors the v2→v3
// migration guarantee: a version bump never resurrects old bytes.
func TestDiskCacheV3AgesOut(t *testing.T) {
	dir := t.TempDir()
	sp := smallSpec(66)

	// Run once to learn the digest, then fake a stale v3 entry for it.
	s1, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	_, rs := postSpec(t, ts1, sp)
	waitDone(t, ts1, rs.Digest)
	ts1.Close()
	shutdownServer(t, s1)

	key := strings.TrimPrefix(rs.Digest, "sha256:")
	stale := filepath.Join(dir, key+".r3.json")
	if err := os.WriteFile(stale, []byte(`{"result_version":3,"digest":"`+rs.Digest+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, rs2 := postSpec(t, ts2, sp)
	if code != http.StatusAccepted || rs2.Cached {
		t.Fatalf("v3 entry served under v5: HTTP %d %+v", code, rs2)
	}
	done := waitDone(t, ts2, rs2.Digest)
	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.ResultVersion != 5 {
		t.Fatalf("recomputed result_version = %d, want 5", res.ResultVersion)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".r5.json")); err != nil {
		t.Errorf("fresh v5 entry not written: %v", err)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("stale v3 entry was clobbered: %v", err)
	}
}

// TestProgressStreamQueuedKeepalive: a run parked behind a busy worker emits
// named `event: queued` keepalive frames until it is scheduled, then
// `event: progress` frames, and finally `event: done` — and once sampling is
// on, at least one running frame carries the latest closed interval window.
func TestProgressStreamQueuedKeepalive(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Occupy the single worker so the watched run sits in the queue long
	// enough for a keepalive tick (queued frames are emitted on the same
	// ~200ms cadence as progress frames).
	postSpec(t, ts, slowSpec(71))
	watched := slowSpec(72)
	watched.Observe.IntervalInsts = 50_000
	_, rs := postSpec(t, ts, watched)

	req, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+rs.Digest+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type frame struct {
		name string
		ev   interval.Progress
	}
	var (
		frames []frame
		name   string
		sc     = bufio.NewScanner(resp.Body)
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev interval.Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			frames = append(frames, frame{name, ev})
		}
		if len(frames) > 0 && frames[len(frames)-1].ev.Done {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("stream produced no frames")
	}

	// Every frame must carry a name consistent with its payload, the first
	// must be a queued keepalive (the worker is busy), and no queued frame
	// may follow a progress frame.
	if frames[0].name != "queued" || frames[0].ev.Status != "queued" {
		t.Fatalf("first frame = %q %+v, want a queued keepalive", frames[0].name, frames[0].ev)
	}
	sawProgress, sawWindow := false, false
	for i, f := range frames {
		switch {
		case f.ev.Done:
			if f.name != "done" {
				t.Fatalf("terminal frame named %q", f.name)
			}
		case f.ev.Status == "queued":
			if f.name != "queued" {
				t.Fatalf("frame %d: queued status named %q", i, f.name)
			}
			if sawProgress {
				t.Fatalf("frame %d: queued keepalive after the run started", i)
			}
		default:
			if f.name != "progress" {
				t.Fatalf("frame %d: running status named %q", i, f.name)
			}
			sawProgress = true
			if f.ev.Window != nil {
				sawWindow = true
				if f.ev.Window.EndInst == 0 {
					t.Fatalf("frame %d: live window is empty: %+v", i, f.ev.Window)
				}
			}
		}
	}
	last := frames[len(frames)-1]
	if !last.ev.Done || last.name != "done" {
		t.Fatalf("stream did not end on event: done (%q %+v)", last.name, last.ev)
	}
	if !sawProgress {
		t.Error("no progress frames after the queued keepalives")
	}
	if !sawWindow {
		t.Error("no running frame carried a live interval window despite sampling being on")
	}
	waitDone(t, ts, rs.Digest)
}

// TestMetricsReconcileWithResults: with no warmup, the Prometheus cycle and
// instruction counters equal the sums of the completed runs' results —
// cache hits simulate nothing and add nothing.
func TestMetricsReconcileWithResults(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var cycles, insts uint64
	for i := 0; i < 3; i++ {
		_, rs := postSpec(t, ts, smallSpec(uint64(80+i)))
		st := resultStats(t, waitDone(t, ts, rs.Digest))
		cycles += st.Cycles
		insts += st.Instructions
	}
	postSpec(t, ts, smallSpec(80)) // a cache hit
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"cobra_sim_cycles_total": cycles, "cobra_sim_instructions_total": insts}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if w, tracked := want[name]; ok && tracked {
			if val != strconv.FormatUint(w, 10) {
				t.Errorf("%s = %s, results sum to %d", name, val, w)
			}
			delete(want, name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("/metrics lacks %v", want)
	}
}
