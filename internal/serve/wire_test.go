package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the testdata/wire golden files")

// The wire goldens pin the JSON documents cobra-serve hands its clients —
// the /v1/runs status envelope (queued, cached done, failed), progress
// frames, and the stored Result — byte for byte.  Each document is rendered
// from fixed values by the handler that serves it, so a change to any
// declaration on the wire shows up here before a client notices.
// `go test ./internal/serve -run TestWireGolden -update` rewrites them.

// wireTraceparent fixes the trace ID the envelopes echo.
const wireTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// wireSpec is a canonical spec and its digest; seed varies the digest.
func wireSpec(t *testing.T, seed uint64) (*spec.RunSpec, string) {
	t.Helper()
	sp := smallSpec(seed)
	sp.Observe.IntervalInsts = 10_000
	if err := sp.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	digest, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return sp, digest
}

// wireResources is a fixed resource-attribution record.
func wireResources() *obs.Resources {
	return &obs.Resources{
		CPUUserMS: 11.5, GCCPUMS: 0.25, AllocBytes: 65536, AllocObjects: 512,
		PeakHeapDeltaBytes: 32768, GCPauseMS: 0.125, GCPauseShare: 0.01, GCCycles: 1,
		WallMS: 12.5, QueueWaitMS: 1.5, RetryWaitMS: 250, Attempts: 2,
	}
}

// wireWindow is a fixed closed interval window.
func wireWindow(index int) interval.Window {
	return interval.Window{
		Index: index, StartCycle: uint64(index) * 15_000, EndCycle: uint64(index+1) * 15_000,
		StartInst: uint64(index) * 10_000, EndInst: uint64(index+1) * 10_000,
		Branches: 1500, Mispredicts: 60, DirMispredicts: 50, TgtMispredicts: 10,
		BTBMisses: 7, RASEvents: 40, FetchBubbles: 300, Redirects: 55,
		HistoryRepairs: 55, FetchReplays: 3, Overrides: 12, Squashes: 90, H2PMispredicts: 4,
		Providers: []interval.ProviderStat{{Name: "BIM2", Branches: 1500, Mispredicts: 60}},
	}
}

// wireResult renders the fixed stored Result for sp.
func wireResult(t *testing.T, sp *spec.RunSpec, digest string) []byte {
	t.Helper()
	var res Result
	// The timings arrive as JSON so the golden pins their wire form, not a
	// Go literal of one particular declaration.
	if err := json.Unmarshal([]byte(`{"timings":{"queue_wait_ms":1.5,"exec_ms":12.25,`+
		`"canonicalize_ms":0.0625,"workload_ms":0.5,"compose_ms":0.25,"warmup_ms":1,`+
		`"simulate_ms":10,"total_ms":11.75}}`), &res); err != nil {
		t.Fatal(err)
	}
	res.ResultVersion = resultVersion
	res.Spec = sp
	res.Digest = digest
	res.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	res.Stats = &stats.Sim{
		Cycles: 30_000, Instructions: 20_000, Branches: 3000, Jumps: 400, IndirectJumps: 80,
		Mispredicts: 120, DirMispredicts: 100, TgtMispredicts: 20, BTBMisses: 14, RASEvents: 80,
		FetchBubbles: 600, RedirectFlushes: 110, HistoryRepairs: 110, FetchReplays: 6,
		ProviderHits:   map[string]uint64{"BIM2": 3000},
		ProviderMisses: map[string]uint64{"BIM2": 100},
	}
	res.Events = []obs.Event{
		{Cycle: 5, PC: 0x1000, Seq: 1, MetaSum: 0xbeef, Kind: obs.KPredict, Slot: 2, Dur: 1, Comp: "BIM2"},
	}
	res.EventsTotal = 1
	res.Intervals = &interval.Set{IntervalInsts: 10_000,
		Windows: []interval.Window{wireWindow(0), wireWindow(1)},
		Hash:    fmt.Sprintf("sha256:%064x", 0xc0b7a)}
	res.Retries = 1
	res.Resources = wireResources()
	res.WallMS = 13
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// wireBody performs one request against h and returns the status code and
// body bytes.
func wireBody(t *testing.T, h http.Handler, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("traceparent", wireTraceparent)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, out
}

func TestWireGolden(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No workers are started: admitted runs stay queued, and the documents
	// below depend on the fixed values alone.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	h := s.Handler()

	// A finished run in the cache.
	spDone, dDone := wireSpec(t, 1)
	result := wireResult(t, spDone, dDone)
	s.results.put(dDone, result)

	// A failed run in the failure FIFO.
	_, dFailed := wireSpec(t, 2)
	s.mu.Lock()
	s.recordFailureLocked(dFailed, &runFailure{
		msg: "invariant violation: rob overflow", retries: 2, resources: wireResources(),
		flight: []obs.FlightRecord{
			{Seq: 41, TimeUS: 1_700_000_000_000_000, Level: "WARN", Source: "log",
				Msg: "run retrying", Attrs: "attempt=1 of=2"},
			{Seq: 42, TimeUS: 1_700_000_000_250_000, Level: "SPAN", Source: "exec",
				Msg: "exec", Attrs: "digest=" + dFailed},
		},
	})
	s.mu.Unlock()

	// A queued run whose recorder holds a target, totals and one closed
	// window; it never leaves the queued phase, so no wall clock shows.
	spLive, dLive := wireSpec(t, 3)
	j := s.newJob(spLive, dLive, obs.TraceContext{}, time.Time{})
	j.rec.SetTarget(20_000)
	sim := &stats.Sim{Instructions: 10_000, Branches: 1500, Mispredicts: 60,
		ProviderHits: map[string]uint64{"BIM2": 1500}, ProviderMisses: map[string]uint64{"BIM2": 60}}
	j.rec.Tick(15_000, sim, 12, 90, 55)
	sim.Instructions = 12_500
	j.rec.Tick(18_000, sim, 12, 90, 55)
	j.admitSeq = 5
	s.mu.Lock()
	s.jobs[dLive] = j
	s.mu.Unlock()

	spQueued, _ := wireSpec(t, 4)
	queuedBody, err := json.Marshal(spQueued)
	if err != nil {
		t.Fatal(err)
	}
	doneBody, err := json.Marshal(spDone)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		code   int
	}{
		{"status_queued", http.MethodPost, "/v1/runs", queuedBody, http.StatusAccepted},
		{"status_cached", http.MethodPost, "/v1/runs", doneBody, http.StatusOK},
		{"status_done", http.MethodGet, "/v1/runs/" + dDone, nil, http.StatusOK},
		{"status_failed", http.MethodGet, "/v1/runs/" + dFailed, nil, http.StatusOK},
		{"progress_queued", http.MethodGet, "/v1/runs/" + dLive + "/progress", nil, http.StatusOK},
		{"progress_done", http.MethodGet, "/v1/runs/" + dDone + "/progress", nil, http.StatusOK},
	}
	docs := map[string][]byte{"result": append(result, '\n')}
	for _, c := range cases {
		code, body := wireBody(t, h, c.method, c.path, c.body)
		if code != c.code {
			t.Fatalf("%s: HTTP %d, want %d: %s", c.name, code, c.code, body)
		}
		docs[c.name] = body
	}

	for name, got := range docs {
		path := filepath.Join("testdata", "wire", name+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed on the wire:\ngot:  %s\nwant: %s", path, got, want)
		}
	}
}
