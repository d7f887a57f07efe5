package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderOrdering(t *testing.T) {
	f := NewFlightRecorder(4)
	if got := f.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh recorder has %d records", len(got))
	}
	for i := 0; i < 3; i++ {
		f.Record("INFO", "test", fmt.Sprintf("msg-%d", i), "")
	}
	snap := f.Snapshot()
	if len(snap) != 3 || f.Total() != 3 {
		t.Fatalf("partial ring: len=%d total=%d", len(snap), f.Total())
	}
	for i, r := range snap {
		if r.Seq != uint64(i) || r.Msg != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 11; i++ {
		f.Record("INFO", "test", fmt.Sprintf("msg-%d", i), "")
	}
	if f.Total() != 11 {
		t.Fatalf("total = %d, want 11", f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want cap 4", len(snap))
	}
	// Oldest-first: sequences 7,8,9,10 in order, strictly ascending across
	// the wrap point.
	for i, r := range snap {
		want := uint64(7 + i)
		if r.Seq != want || r.Msg != fmt.Sprintf("msg-%d", want) {
			t.Fatalf("snap[%d] = %+v, want seq %d", i, r, want)
		}
	}
	tail := f.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("tail = %+v", tail)
	}
}

// TestFlightRecorderConcurrent hammers the ring from many goroutines; run
// under -race this is the bounds/data-race proof.  Sequence numbers in any
// snapshot must stay unique and ascending.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	const writers, each = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Record("INFO", "w", "concurrent", "")
			}
		}(w)
	}
	go func() { // concurrent reader, stopped after the writers finish
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq <= snap[i-1].Seq {
					t.Errorf("non-ascending seq: %d after %d", snap[i].Seq, snap[i-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if f.Total() != writers*each {
		t.Fatalf("total = %d, want %d", f.Total(), writers*each)
	}
	if len(f.Snapshot()) != 64 {
		t.Fatalf("snapshot len = %d, want 64", len(f.Snapshot()))
	}
}

// TestFlightRecorderCapConcurrent reads the capacity while records are
// appended, as /statusz does while jobs log; run under -race it proves Cap
// and WriteJSON do not race with Record.  The ring never fills, so every
// Record grows it.
func TestFlightRecorderCapConcurrent(t *testing.T) {
	const n = 2000
	f := NewFlightRecorder(4 * n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			f.Record("INFO", "w", "concurrent", "")
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			if f.Cap() != 4*n || f.Total() != n {
				t.Fatalf("cap %d total %d, want %d and %d", f.Cap(), f.Total(), 4*n, n)
			}
			return
		default:
		}
		if f.Cap() != 4*n {
			t.Fatalf("Cap() = %d while recording, want %d", f.Cap(), 4*n)
		}
		if i%64 == 0 {
			if err := f.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("INFO", "x", "y", "")
	if f.Snapshot() != nil || f.Tail(3) != nil || f.Total() != 0 || f.Cap() != 0 {
		t.Fatal("nil recorder should be inert")
	}
}

func TestFlightHandlerTee(t *testing.T) {
	f := NewFlightRecorder(16)
	var visible bytes.Buffer
	inner := slog.NewTextHandler(&visible, &slog.HandlerOptions{Level: slog.LevelInfo})
	log := slog.New(NewFlightHandler(inner, f))

	log.Debug("below the visible level", "k", "v")
	log.With("digest", "sha256:ab").Info("visible line", "n", 7)

	snap := f.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring has %d records, want 2 (debug must be captured)", len(snap))
	}
	if snap[0].Level != "DEBUG" || snap[0].Msg != "below the visible level" || snap[0].Attrs != "k=v" {
		t.Fatalf("debug record = %+v", snap[0])
	}
	if snap[1].Attrs != "digest=sha256:ab n=7" {
		t.Fatalf("WithAttrs context not pre-rendered: %q", snap[1].Attrs)
	}
	out := visible.String()
	if strings.Contains(out, "below the visible level") {
		t.Fatal("debug line leaked to the visible log")
	}
	if !strings.Contains(out, "visible line") {
		t.Fatalf("info line missing from visible log: %q", out)
	}
}

func TestFlightJSONAndHandler(t *testing.T) {
	f := EnableFlight(32)
	f.Record("ERROR", "test", "handler check", "a=1")

	rr := httptest.NewRecorder()
	HandleFlight(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var doc struct {
		Total   uint64         `json:"total"`
		Cap     int            `json:"cap"`
		Records []FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("flight doc does not parse: %v\n%s", err, rr.Body.String())
	}
	if doc.Total == 0 || len(doc.Records) == 0 {
		t.Fatalf("flight doc empty: %+v", doc)
	}
	found := false
	for _, r := range doc.Records {
		if r.Msg == "handler check" && r.Level == "ERROR" {
			found = true
		}
	}
	if !found {
		t.Fatal("recorded line missing from /debug/flight document")
	}
}

// TestSpanCompletionTee verifies finished spans land in the armed process
// recorder.
func TestSpanCompletionTee(t *testing.T) {
	f := EnableFlight(32)
	before := f.Total()
	rec := NewSpanRecorder(TraceContext{}, 8)
	sp := rec.Start(TraceContext{}, "exec", "tee-span")
	sp.End()
	if f.Total() == before {
		t.Fatal("span completion was not teed into the flight recorder")
	}
	tail := f.Tail(1)
	if len(tail) != 1 || tail[0].Level != "SPAN" || tail[0].Msg != "tee-span" || tail[0].Source != "exec" {
		t.Fatalf("teed span record = %+v", tail)
	}
}

func TestRegisterDebugRoutes(t *testing.T) {
	addr, closer, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer() //nolint:errcheck
	for _, path := range []string{"/debug/pprof/", "/debug/flight"} {
		resp, err := httpGet(t, "http://"+addr+path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp != 200 {
			t.Fatalf("GET %s = %d", path, resp)
		}
	}
}

func httpGet(t *testing.T, url string) (int, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //nolint:errcheck
	return resp.StatusCode, nil
}

// TestFlightDumpOnPanic re-executes the test binary as a crashing child and
// checks both halves of the dump: the text tail on stderr and the JSON file.
func TestFlightDumpOnPanic(t *testing.T) {
	if os.Getenv("COBRA_FLIGHT_PANIC_CHILD") == "1" {
		EnableFlight(16)
		SetFlightDumpPath(os.Getenv("COBRA_FLIGHT_DUMP"))
		Flight().Record("INFO", "child", "last words before the fall", "k=v")
		defer DumpFlightOnPanic()
		panic("intentional crash for TestFlightDumpOnPanic")
	}

	dump := filepath.Join(t.TempDir(), "flight.json")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFlightDumpOnPanic$", "-test.v")
	cmd.Env = append(os.Environ(),
		"COBRA_FLIGHT_PANIC_CHILD=1", "COBRA_FLIGHT_DUMP="+dump)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; want panic\n%s", out)
	}
	if !strings.Contains(string(out), "last words before the fall") {
		t.Fatalf("stderr dump missing recorded line:\n%s", out)
	}
	if !strings.Contains(string(out), "intentional crash") {
		t.Fatalf("original panic value lost:\n%s", out)
	}
	raw, rerr := os.ReadFile(dump)
	if rerr != nil {
		t.Fatalf("JSON dump not written: %v\n%s", rerr, out)
	}
	var doc struct {
		Records []FlightRecord `json:"records"`
	}
	if jerr := json.Unmarshal(raw, &doc); jerr != nil {
		t.Fatalf("JSON dump does not parse: %v", jerr)
	}
	found := false
	for _, r := range doc.Records {
		if r.Msg == "last words before the fall" {
			found = true
		}
	}
	if !found {
		t.Fatalf("JSON dump missing recorded line: %s", raw)
	}
}

func TestResourceMeter(t *testing.T) {
	m := StartResourceMeter(time.Millisecond)
	// Do some attributable work: allocate and burn a little CPU.
	sink := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	deadline := time.Now().Add(10 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	_ = sink
	// /gc/heap/allocs:bytes counts a P's cached span only once the span is
	// refilled or flushed; a GC flushes every cache, so the exact bound holds.
	runtime.GC()
	res := m.Stop()
	if res.AllocBytes < 256*4096 {
		t.Fatalf("alloc bytes = %d, want >= %d", res.AllocBytes, 256*4096)
	}
	if res.AllocObjects == 0 {
		t.Fatalf("alloc objects = 0")
	}
	if res.WallMS <= 0 {
		t.Fatalf("wall = %v", res.WallMS)
	}
	if res.CPUUserMS < 0 || res.GCCPUMS < 0 || res.GCPauseShare < 0 || res.GCPauseShare > 1 {
		t.Fatalf("implausible attribution: %+v", res)
	}
	var nilM *ResourceMeter
	if r := nilM.Stop(); r.WallMS != 0 {
		t.Fatal("nil meter should return zero record")
	}
}
