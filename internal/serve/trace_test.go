package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cobra/internal/spec"
)

// postSpecTraced is postSpec with a traceparent header attached.
func postSpecTraced(t *testing.T, ts *httptest.Server, s *spec.RunSpec, traceparent string) (int, Status) {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
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

// chromeDoc mirrors the trace_event JSON /v1/runs/{id}/trace serves.
type chromeDoc struct {
	TraceEvents []struct {
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Name string            `json:"name"`
		Dur  int64             `json:"dur"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func getTrace(t *testing.T, ts *httptest.Server, digest string) (int, chromeDoc) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + digest + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, doc
}

// TestTraceEndToEnd is the acceptance path: a POST carrying a synthetic
// traceparent yields a Chrome trace whose hops all share the supplied trace
// ID, the cached Result carries a phase-timing breakdown, and a repeat POST
// (cache hit) records a near-zero exec span plus a hit-histogram increment.
func TestTraceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const tp = "00-" + tid + "-00f067aa0ba902b7-01"

	code, rs := postSpecTraced(t, ts, smallSpec(7), tp)
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d %+v", code, rs)
	}
	if rs.TraceID != tid {
		t.Fatalf("response trace_id %q, want the supplied %q", rs.TraceID, tid)
	}
	done := waitDone(t, ts, rs.Digest)
	if done.Status != "done" {
		t.Fatalf("run failed: %+v", done)
	}

	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.ResultVersion != resultVersion {
		t.Errorf("result_version = %d, want %d", res.ResultVersion, resultVersion)
	}
	if res.TraceID != tid {
		t.Errorf("result trace_id %q, want %q", res.TraceID, tid)
	}
	var tmg Timings
	if err := json.Unmarshal(res.Timings, &tmg); err != nil {
		t.Fatalf("result has no timings breakdown: %v", err)
	}
	if tmg.ExecMS <= 0 || tmg.SimulateMS <= 0 || tmg.TotalMS <= 0 {
		t.Errorf("timings not populated: %+v", tmg)
	}
	if tmg.SimulateMS > tmg.TotalMS {
		t.Errorf("simulate %.3fms exceeds exec total %.3fms", tmg.SimulateMS, tmg.TotalMS)
	}

	code, doc := getTrace(t, ts, rs.Digest)
	if code != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d", code)
	}
	tracks := map[string]bool{}
	spanNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			tracks[ev.Args["name"]] = true
		case "X":
			spanNames[ev.Name] = true
			if got := ev.Args["trace_id"]; got != tid {
				t.Errorf("span %q trace_id %q, want %q", ev.Name, got, tid)
			}
		}
	}
	// The acceptance bar: at least six distinct hops on one trace.
	for _, hop := range []string{"admission", "cache", "queue", "worker", "exec", "http"} {
		if !tracks[hop] {
			t.Errorf("trace missing hop track %q (have %v)", hop, tracks)
		}
	}
	for _, name := range []string{"queue.wait", "simulate", "canonicalize", "compose", "cache.write", "render"} {
		if !spanNames[name] {
			t.Errorf("trace missing span %q (have %v)", name, spanNames)
		}
	}

	// Repeat POST: a cache hit under a new trace ID.
	const tid2 = "00000000000000000000000000000abc"
	code, rs2 := postSpecTraced(t, ts, smallSpec(7), "00-"+tid2+"-00f067aa0ba902b7-01")
	if code != http.StatusOK || !rs2.Cached {
		t.Fatalf("repeat POST not a cache hit: HTTP %d %+v", code, rs2)
	}
	if rs2.TraceID != tid2 {
		t.Errorf("hit trace_id %q, want %q", rs2.TraceID, tid2)
	}
	if got := s.Metrics().RequestCount(true); got != 1 {
		t.Errorf("hit histogram count = %d, want 1", got)
	}
	if got := s.Metrics().RequestCount(false); got != 1 {
		t.Errorf("miss histogram count = %d, want 1", got)
	}
	_, doc = getTrace(t, ts, rs.Digest)
	foundCachedExec := false
	var missExecUS, hitExecUS int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name != "exec" && ev.Name != "run" {
			continue
		}
		if ev.Args["cached"] == "true" {
			foundCachedExec = true
			hitExecUS = ev.Dur
		} else if ev.Name == "run" {
			missExecUS = ev.Dur
		}
	}
	if !foundCachedExec {
		t.Fatal("cache hit did not record an exec span with cached=true")
	}
	if hitExecUS >= missExecUS {
		t.Errorf("cached exec span (%dµs) not shorter than the real one (%dµs)", hitExecUS, missExecUS)
	}

	// The histogram reaches /metrics in exposition form.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cobra_request_seconds_count{result="hit"} 1`,
		`cobra_request_seconds_count{result="miss"} 1`,
		"cobra_serve_queue_wait_seconds_count 1",
		"# TYPE cobra_job_exec_seconds histogram",
		"cobra_serve_span_drops_total",
		"cobra_serve_failures",
		"go_build_info{",
		"cobra_build_info{",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceBogusTraceparent: a malformed header falls back to a fresh trace
// instead of an error or a zero ID.
func TestTraceBogusTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, rs := postSpecTraced(t, ts, smallSpec(8), "00-zznotahexid-xx-01")
	if code != http.StatusAccepted {
		t.Fatalf("POST: HTTP %d", code)
	}
	if len(rs.TraceID) != 32 || rs.TraceID == strings.Repeat("0", 32) {
		t.Errorf("fallback trace_id %q is not a fresh 32-hex id", rs.TraceID)
	}
	waitDone(t, ts, rs.Digest)
}

// TestTraceNotFound: an unknown (but well-formed) digest has no trace.
func TestTraceNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, _ := getTrace(t, ts, "sha256:"+strings.Repeat("ab", 32))
	if code != http.StatusNotFound {
		t.Errorf("GET trace for unknown digest: HTTP %d, want 404", code)
	}
}

// TestReadiness: /healthz stays 200 through a drain (liveness), while
// /healthz/ready flips to 503 so balancers stop routing new submissions.
func TestReadiness(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}
	code, doc := get("/healthz/ready")
	if code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("ready before drain: HTTP %d %v", code, doc)
	}
	if _, ok := doc["build"]; !ok {
		t.Error("health document has no build info")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, doc = get("/healthz/ready"); code != http.StatusServiceUnavailable || doc["status"] != "draining" {
		t.Errorf("ready while draining: HTTP %d %v, want 503 draining", code, doc)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Errorf("liveness while draining: HTTP %d, want 200", code)
	}
}
