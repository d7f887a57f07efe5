package client

// Tests for the retrying client: real end-to-end conversations against an
// in-process serve.Server, plus scripted fault handlers for each failure the
// client must ride out — 429 backpressure, 503 drains, connection refusal
// while the daemon restarts, and runs that vanish from an unjournaled server.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobra/internal/interval"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

func smallSpec(seed uint64) *spec.RunSpec {
	return &spec.RunSpec{Topology: "BIM2", Workload: "fib", Seed: seed, Insts: 20_000}
}

func newClient(t *testing.T, url string, opts ...func(*Config)) *Client {
	t.Helper()
	cfg := Config{BaseURL: url, BaseBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, Poll: 5 * time.Millisecond}
	for _, o := range opts {
		o(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunEndToEnd: a Run against a real server returns the stats a direct
// spec.Exec computes, and a repeat Run replays the identical bytes.
func TestRunEndToEnd(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	c := newClient(t, ts.URL)
	res, err := c.Run(context.Background(), smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Exec(smallSpec(1), spec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(out.Stats)
	got, _ := json.Marshal(res.Stats)
	if !bytes.Equal(got, want) {
		t.Errorf("remote stats diverge from direct execution:\nremote: %s\ndirect: %s", got, want)
	}
	res2, err := c.Run(context.Background(), smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Raw, res2.Raw) {
		t.Error("repeat run returned different bytes")
	}
}

// doneBody is a minimal done envelope carrying a parseable result.
func doneBody(digest string) string {
	return fmt.Sprintf(`{"digest":%q,"status":"done","result":{"result_version":4,"digest":%q,"stats":{},"wall_ms":1}}`,
		digest, digest)
}

const fakeDigest = "sha256:" + "ab" + "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"

// TestBackpressure429: the client honors Retry-After on 429 and succeeds
// once the queue has room.
func TestBackpressure429(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			if posts.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"queue full"}`)
				return
			}
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, doneBody(fakeDigest))
			return
		}
		t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
	}))
	defer ts.Close()
	res, err := newClient(t, ts.URL).Run(context.Background(), smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != fakeDigest || posts.Load() != 3 {
		t.Errorf("digest=%s posts=%d", res.Digest, posts.Load())
	}
}

// TestDraining503: a submission hitting a draining server retries until the
// (restarted) server accepts.
func TestDraining503(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"server is draining"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, doneBody(fakeDigest))
	}))
	defer ts.Close()
	if _, err := newClient(t, ts.URL).Run(context.Background(), smallSpec(3)); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionRefusedThenUp: the daemon is down when the client first
// calls (connection refused) and comes up mid-retry — the client connects
// on a later attempt without surfacing the outage.
func TestConnectionRefusedThenUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is now refusing connections

	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, doneBody(fakeDigest))
	})}
	up := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("rebinding %s: %v", addr, err)
			close(up)
			return
		}
		close(up)
		srv.Serve(ln2) //nolint:errcheck
	}()
	defer srv.Close()

	c := newClient(t, "http://"+addr, func(cfg *Config) {
		cfg.MaxAttempts = 20
		cfg.BaseBackoff = 10 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, smallSpec(4)); err != nil {
		t.Fatal(err)
	}
	<-up
}

// TestVanishedRunResubmitted: the daemon accepts a run, then "restarts"
// unjournaled and answers 404 — the client resubmits the same digest and
// completes.
func TestVanishedRunResubmitted(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			if posts.Add(1) == 1 {
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"digest":%q,"status":"queued"}`, fakeDigest)
				return
			}
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, doneBody(fakeDigest))
		case strings.HasPrefix(r.URL.Path, "/v1/runs/"):
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown run"}`)
		}
	}))
	defer ts.Close()
	res, err := newClient(t, ts.URL).Run(context.Background(), smallSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 2 {
		t.Errorf("posts = %d, want 2 (initial + resubmission)", posts.Load())
	}
	if res.Digest != fakeDigest {
		t.Errorf("digest = %s", res.Digest)
	}
}

// TestFailedRunIsPermanent: a server-side execution failure is reported as a
// RunError, not retried forever.
func TestFailedRunIsPermanent(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"digest":%q,"status":"queued"}`, fakeDigest)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, `{"digest":%q,"status":"failed","error":"timeout"}`, fakeDigest)
	}))
	defer ts.Close()
	_, err := newClient(t, ts.URL).Run(context.Background(), smallSpec(6))
	var re *RunError
	if !errors.As(err, &re) || re.Message != "timeout" {
		t.Fatalf("err = %v, want RunError(timeout)", err)
	}
}

// TestBadSpecIsPermanent: a 400 is not retried.
func TestBadSpecIsPermanent(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad spec"}`)
	}))
	defer ts.Close()
	_, err := newClient(t, ts.URL).Run(context.Background(), smallSpec(7))
	if err == nil || !strings.Contains(err.Error(), "bad spec") {
		t.Fatalf("err = %v, want the server's bad-spec message", err)
	}
	if posts.Load() != 1 {
		t.Errorf("400 was retried: %d posts", posts.Load())
	}
}

// TestGiveUp: a persistently down endpoint exhausts MaxAttempts and reports
// the last transport error.
func TestGiveUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := newClient(t, "http://"+addr, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err = c.Submit(context.Background(), smallSpec(8))
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("err = %v, want give-up after 3 attempts", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"": 0, "2": 2 * time.Second, "0": 0, "-1": 0, "soon": 0,
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	c := newClient(t, "http://localhost:1", func(cfg *Config) {
		cfg.BaseBackoff = 100 * time.Millisecond
		cfg.MaxBackoff = time.Second
	})
	for n := 0; n < 40; n++ {
		d := c.backoff(n)
		if d <= 0 || d > time.Second {
			t.Fatalf("backoff(%d) = %v out of (0, 1s]", n, d)
		}
	}
}

// TestOnProgressEndToEnd: a Run with OnProgress set against a real server
// receives live frames from the SSE stream, ending terminally, while the
// result itself stays byte-identical to a run without a watcher.
func TestOnProgressEndToEnd(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	var (
		mu     sync.Mutex
		frames []interval.Progress
	)
	slow := &spec.RunSpec{
		Design: "tage-l", Topology: "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1",
		Pipeline: spec.Pipeline{GHistBits: 64},
		Workload: "dhrystone", Seed: 7, Insts: 300_000,
	}
	c := newClient(t, ts.URL, func(cfg *Config) {
		cfg.OnProgress = func(p interval.Progress) {
			mu.Lock()
			frames = append(frames, p)
			mu.Unlock()
		}
	})
	res, err := c.Run(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resources == nil || res.Resources.WallMS <= 0 {
		t.Errorf("remote result carries no resource attribution: %+v", res.Resources)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) == 0 {
		t.Fatal("OnProgress never fired")
	}
	sawCycles := false
	for _, p := range frames {
		if p.Digest != res.Digest {
			t.Errorf("frame for wrong digest: %s != %s", p.Digest, res.Digest)
		}
		if p.Cycles > 0 {
			sawCycles = true
		}
	}
	if !sawCycles {
		t.Error("no frame carried cycle counts from the core flush path")
	}
	if last := frames[len(frames)-1]; !last.Done {
		t.Errorf("stream did not end on a terminal frame: %+v", last)
	}
}

// TestOnProgressSeesTerminalFrame: when the status poll sees done before
// the progress stream has sent its terminal frame, Run still delivers that
// frame to OnProgress before it returns.
func TestOnProgressSeesTerminalFrame(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"digest":%q,"status":"queued"}`, fakeDigest)
		case strings.HasSuffix(r.URL.Path, "/progress"):
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprintf(w, "data: {\"digest\":%q,\"status\":\"running\",\"cycles\":1}\n\n", fakeDigest)
			w.(http.Flusher).Flush()
			time.Sleep(200 * time.Millisecond)
			fmt.Fprintf(w, "data: {\"digest\":%q,\"status\":\"done\",\"cycles\":2,\"done\":true}\n\n", fakeDigest)
		default:
			fmt.Fprint(w, doneBody(fakeDigest))
		}
	}))
	defer ts.Close()
	var (
		mu     sync.Mutex
		frames []interval.Progress
	)
	c := newClient(t, ts.URL, func(cfg *Config) {
		cfg.OnProgress = func(p interval.Progress) {
			mu.Lock()
			frames = append(frames, p)
			mu.Unlock()
		}
	})
	if _, err := c.Run(context.Background(), smallSpec(4)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) == 0 || !frames[len(frames)-1].Done {
		t.Fatalf("OnProgress did not see the terminal frame: %+v", frames)
	}
}

// TestWatchFallback: a server that answers /progress with plain JSON (no
// SSE) still delivers exactly one snapshot to the callback.
func TestWatchFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/progress") {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"digest":%q,"status":"running","phase":"simulate","cycles":42,"done":false}`, fakeDigest)
			return
		}
		t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
	}))
	defer ts.Close()
	var got []interval.Progress
	err := newClient(t, ts.URL).Watch(context.Background(), fakeDigest,
		func(p interval.Progress) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Phase != "simulate" || got[0].Cycles != 42 {
		t.Fatalf("fallback snapshot = %+v", got)
	}
}
