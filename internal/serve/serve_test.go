package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/spec"
)

// smallSpec is a fast-to-simulate run; vary seed to mint distinct digests.
func smallSpec(seed uint64) *spec.RunSpec {
	return &spec.RunSpec{Topology: "BIM2", Workload: "fib", Seed: seed, Insts: 20_000}
}

// slowSpec takes long enough that the test can observe it in flight.
func slowSpec(seed uint64) *spec.RunSpec {
	return &spec.RunSpec{
		Design: "tage-l", Topology: "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1",
		Pipeline: spec.Pipeline{GHistBits: 64},
		Workload: "dhrystone", Seed: seed, Insts: 300_000,
	}
}

func postSpec(t *testing.T, ts *httptest.Server, s *spec.RunSpec) (int, Status) {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs Status
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, rs
}

// waitDone polls GET until the run leaves the queue, failing on deadline.
func waitDone(t *testing.T, ts *httptest.Server, digest string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		var rs Status
		err = json.NewDecoder(resp.Body).Decode(&rs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Status == "done" || rs.Status == "failed" {
			return rs
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s still not done", digest)
	return Status{}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// TestSubmitCacheHit: the second POST of an identical spec is served from
// cache with the exact bytes of the first computation.
func TestSubmitCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	code, rs := postSpec(t, ts, smallSpec(1))
	if code != http.StatusAccepted || rs.Status != "queued" {
		t.Fatalf("first POST: HTTP %d %+v", code, rs)
	}
	done := waitDone(t, ts, rs.Digest)
	if done.Status != "done" || done.Result == nil {
		t.Fatalf("run did not succeed: %+v", done)
	}
	code2, rs2 := postSpec(t, ts, smallSpec(1))
	if code2 != http.StatusOK || !rs2.Cached {
		t.Fatalf("second POST not a cache hit: HTTP %d %+v", code2, rs2)
	}
	if !bytes.Equal(done.Result, rs2.Result) {
		t.Error("cached result bytes differ from the original")
	}
	if got := s.Metrics().Snap().JobsTotal; got != 1 {
		t.Errorf("cache hit re-ran the job: %d jobs", got)
	}
	var res Result
	if err := json.Unmarshal(rs2.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Instructions < 20_000 {
		t.Errorf("result stats wrong: %+v", res.Stats)
	}
	if res.Digest != rs.Digest {
		t.Errorf("result digest %s != run digest %s", res.Digest, rs.Digest)
	}
}

// TestSingleflight: concurrent identical submissions coalesce onto one job.
func TestSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	code, first := postSpec(t, ts, slowSpec(2))
	if code != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d", code)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, rs := postSpec(t, ts, slowSpec(2))
			if rs.Digest != first.Digest {
				t.Errorf("digest mismatch: %s vs %s", rs.Digest, first.Digest)
			}
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("unexpected HTTP %d", code)
			}
		}()
	}
	wg.Wait()
	waitDone(t, ts, first.Digest)
	if got := s.Metrics().Snap().JobsTotal; got != 1 {
		t.Errorf("%d jobs ran for one spec", got)
	}
}

// TestConcurrentDistinctRuns: ≥32 concurrent POSTed jobs all complete, each
// bit-identical to executing the same canonical spec directly.
func TestConcurrentDistinctRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueLen: 64})
	const n = 32
	digests := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, rs := postSpec(t, ts, smallSpec(uint64(100+i)))
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("job %d: HTTP %d", i, code)
				return
			}
			digests[i] = rs.Digest
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if digests[i] == "" {
			continue
		}
		rs := waitDone(t, ts, digests[i])
		if rs.Status != "done" {
			t.Errorf("job %d: %+v", i, rs)
			continue
		}
		var res Result
		if err := json.Unmarshal(rs.Result, &res); err != nil {
			t.Fatal(err)
		}
		// Reference: the same spec executed directly, no service involved.
		out, err := spec.Exec(smallSpec(uint64(100+i)), spec.Attach{})
		if err != nil {
			t.Fatalf("direct exec %d: %v", i, err)
		}
		want, _ := json.Marshal(out.Stats)
		got, _ := json.Marshal(res.Stats)
		if !bytes.Equal(got, want) {
			t.Errorf("job %d stats diverge from direct execution:\nserve: %s\ndirect: %s", i, got, want)
		}
	}
}

// TestBackpressureAndDrain: a full queue answers 429 + Retry-After; shutdown
// drains queued work and rejects new submissions with 503.
func TestBackpressureAndDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueLen: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, a := postSpec(t, ts, slowSpec(10))
	if code != http.StatusAccepted {
		t.Fatalf("job A: HTTP %d", code)
	}
	// Wait until A is running so B occupies the queue slot deterministically.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/runs/" + a.Digest)
		if err != nil {
			t.Fatal(err)
		}
		var rs Status
		json.NewDecoder(resp.Body).Decode(&rs) //nolint:errcheck
		resp.Body.Close()
		if rs.Status != "queued" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, b := postSpec(t, ts, slowSpec(11))
	if code != http.StatusAccepted {
		t.Fatalf("job B: HTTP %d", code)
	}
	body, _ := json.Marshal(slowSpec(12))
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Both accepted jobs survived the drain.
	for _, d := range []string{a.Digest, b.Digest} {
		rs := waitDone(t, ts, d)
		if rs.Status != "done" {
			t.Errorf("drained job %s: %+v", d, rs)
		}
	}
	// New submissions are refused while (and after) draining.
	code, _ = postSpec(t, ts, smallSpec(13))
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: HTTP %d, want 503", code)
	}

	// Drain-then-restart: the clean drain closed the journal with every
	// accepted digest marked complete, so a server reopened over the same
	// directory recovers nothing and replays exactly zero runs.
	s2, err := New(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.pending) != 0 {
		t.Errorf("restart after clean drain found %d pending runs, want 0", len(s2.pending))
	}
	s2.Start()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().Snap().JournalReplayed; got != 0 {
		t.Errorf("journal_replayed = %d after clean drain, want 0", got)
	}
}

// TestDiskCachePersists: a second server over the same cache directory
// serves the first server's results without re-running.
func TestDiskCachePersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	_, rs := postSpec(t, ts1, smallSpec(20))
	first := waitDone(t, ts1, rs.Digest)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, rs2 := postSpec(t, ts2, smallSpec(20))
	if code != http.StatusOK || !rs2.Cached {
		t.Fatalf("restart lost the cache: HTTP %d %+v", code, rs2)
	}
	if !bytes.Equal(first.Result, rs2.Result) {
		t.Error("disk-cached result bytes differ from the original")
	}
	if got := s2.Metrics().Snap().JobsTotal; got != 0 {
		t.Errorf("disk hit re-ran the job: %d jobs", got)
	}
}

// TestEventsEndpoint: a run that asked for event capture can stream it back;
// runs that didn't get a 404.
func TestEventsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	withEvents := smallSpec(30)
	withEvents.Observe.Events = true
	_, rs := postSpec(t, ts, withEvents)
	waitDone(t, ts, rs.Digest)
	resp, err := http.Get(ts.URL + "/v1/runs/" + rs.Digest + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events endpoint: HTTP %d", resp.StatusCode)
	}
	var payload struct {
		EventsTotal uint64            `json:"events_total"`
		Events      []json.RawMessage `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Events) == 0 || payload.EventsTotal == 0 {
		t.Errorf("no events captured: total=%d len=%d", payload.EventsTotal, len(payload.Events))
	}

	_, rs2 := postSpec(t, ts, smallSpec(31))
	waitDone(t, ts, rs2.Digest)
	resp2, err := http.Get(ts.URL + "/v1/runs/" + rs2.Digest + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("eventless run's events endpoint: HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestBadRequests: malformed specs and digests are rejected cleanly.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"not json":         "{",
		"unknown field":    `{"topology":"BIM2","workload":"fib","bogus":1}`,
		"unknown workload": `{"topology":"BIM2","workload":"nope"}`,
		"bad topology":     `{"topology":"NOT > A ( TOPOLOGY","workload":"fib"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	for _, id := range []string{"sha256:zzz", "../../etc/passwd", "sha256:" + strings.Repeat("0", 63)} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %q: HTTP %d, want 400/404", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/sha256:" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown digest: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestFailedRunReported: a spec that fails at execution shows up as failed,
// is not cached, and a resubmission retries it.
func TestFailedRunReported(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Millisecond})
	code, rs := postSpec(t, ts, slowSpec(40))
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	done := waitDone(t, ts, rs.Digest)
	if done.Status != "failed" || done.Error == "" {
		t.Fatalf("timed-out run reported as %+v", done)
	}
	// Every attempt is one job on the metrics, submitted, done and failed.
	snap := s.Metrics().Snap()
	if n := uint64(done.Resources.Attempts); n == 0 || snap.JobsTotal != n || snap.JobsDone != n || snap.JobsFailed != n {
		t.Errorf("job accounting after a failed run: %+v (resources %+v)", snap, done.Resources)
	}
	if _, ok := s.results.get(rs.Digest); ok {
		t.Error("failed run was cached")
	}
	code, _ = postSpec(t, ts, slowSpec(40))
	if code != http.StatusAccepted {
		t.Errorf("resubmission of failed spec: HTTP %d, want 202", code)
	}
	waitDone(t, ts, rs.Digest)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["workers"] != float64(3) {
		t.Errorf("healthz: %+v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, rs := postSpec(t, ts, smallSpec(50))
	waitDone(t, ts, rs.Digest)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"cobra_jobs_total 1", "cobra_jobs_done 1", "cobra_sim_instructions_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}
