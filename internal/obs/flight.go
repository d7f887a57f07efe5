package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The flight recorder is the always-on half of the introspection layer: a
// bounded in-memory ring of the most recent structured records the process
// produced — log lines at every level, span completions, journal replay and
// skip events, retries, errors.  It costs one short mutex hold per record and
// a fixed allocation at construction, so it stays armed in production; when a
// process is slow, stuck, or dying, the last few hundred records are the
// post-mortem.  The ring is dumped to disk and to stderr on panic and on
// SIGQUIT, and served live at GET /debug/flight.
//
// Like every other obs facility, the recorder is observation-only: nothing in
// the simulation path writes to it (the hot loop's zero-allocation budget is
// unaffected), and a nil *FlightRecorder is a valid no-op receiver.

// FlightRecord is one entry in the ring.
type FlightRecord struct {
	// Seq is the record's global sequence number, monotone from process
	// start; gaps never occur, so Total()-len(Snapshot()) records were
	// overwritten by newer traffic.
	Seq uint64 `json:"seq"`
	// TimeUS is the wall-clock timestamp in microseconds since the Unix
	// epoch (the Chrome trace clock domain).
	TimeUS int64 `json:"time_us"`
	// Level classifies the record: DEBUG/INFO/WARN/ERROR for teed log
	// lines, SPAN for span completions.
	Level string `json:"level"`
	// Source names the subsystem that produced the record (the span's track
	// for SPAN records, "log" for teed slog lines).
	Source string `json:"source,omitempty"`
	// Msg is the human-readable line.
	Msg string `json:"msg"`
	// Attrs carries the record's structured attributes pre-rendered as
	// "k=v k=v" (kept flat so appending a record never allocates a map).
	Attrs string `json:"attrs,omitempty"`
}

// DefaultFlightCap is the ring capacity EnableFlight(0) selects: enough to
// hold several requests' worth of context around a crash without letting the
// dump dominate a post-mortem artifact.
const DefaultFlightCap = 1024

// FlightRecorder is the bounded ring.  All methods are safe for concurrent
// use and valid on a nil receiver.
type FlightRecorder struct {
	capacity int // fixed at construction, so Cap needs no lock
	mu       sync.Mutex
	ring     []FlightRecord
	next     uint64 // total records ever appended == seq of the next record
}

// NewFlightRecorder returns a recorder holding the most recent capacity
// records (0 or negative selects DefaultFlightCap).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{capacity: capacity, ring: make([]FlightRecord, 0, capacity)}
}

// Record appends one record, overwriting the oldest when the ring is full.
func (f *FlightRecorder) Record(level, source, msg, attrs string) {
	if f == nil {
		return
	}
	now := time.Now().UnixMicro()
	f.mu.Lock()
	rec := FlightRecord{Seq: f.next, TimeUS: now, Level: level, Source: source, Msg: msg, Attrs: attrs}
	if len(f.ring) < f.capacity {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[int(f.next)%f.capacity] = rec
	}
	f.next++
	f.mu.Unlock()
}

// Total returns how many records were ever appended (the next sequence
// number); Total() minus the snapshot length is how many were overwritten.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Snapshot returns the retained records oldest-first, sequence numbers
// strictly ascending across the wraparound point.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, len(f.ring))
	if len(f.ring) < f.capacity || f.next == uint64(len(f.ring)) {
		return append(out, f.ring...)
	}
	head := int(f.next) % f.capacity // oldest retained record's slot
	out = append(out, f.ring[head:]...)
	out = append(out, f.ring[:head]...)
	return out
}

// Tail returns the newest n retained records, oldest-first.
func (f *FlightRecorder) Tail(n int) []FlightRecord {
	all := f.Snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// WriteText renders the retained records one per line, oldest first — the
// shape the crash dumps use.
func (f *FlightRecorder) WriteText(w io.Writer) {
	for _, r := range f.Snapshot() {
		ts := time.UnixMicro(r.TimeUS).UTC().Format("15:04:05.000000")
		fmt.Fprintf(w, "%8d %s %-5s %-10s %s", r.Seq, ts, r.Level, r.Source, r.Msg)
		if r.Attrs != "" {
			fmt.Fprintf(w, "  %s", r.Attrs)
		}
		fmt.Fprintln(w)
	}
}

// flightDoc is the JSON document /debug/flight and the disk dumps serve.
type flightDoc struct {
	Total   uint64         `json:"total"`
	Cap     int            `json:"cap"`
	Records []FlightRecord `json:"records"`
}

// WriteJSON renders the retained records as the /debug/flight document.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	doc := flightDoc{Total: f.Total(), Cap: f.Cap(), Records: f.Snapshot()}
	if doc.Records == nil {
		doc.Records = []FlightRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// processFlight is the process-wide recorder the teed loggers, the span
// recorders, and the crash dumps share.
var processFlight atomic.Pointer[FlightRecorder]

// EnableFlight arms the process-wide flight recorder (idempotent: an already
// armed recorder is returned unchanged, so libraries and main wiring can both
// call it) and returns it.
func EnableFlight(capacity int) *FlightRecorder {
	if f := processFlight.Load(); f != nil {
		return f
	}
	f := NewFlightRecorder(capacity)
	if processFlight.CompareAndSwap(nil, f) {
		return f
	}
	return processFlight.Load()
}

// Flight returns the process-wide recorder, or nil before EnableFlight.
func Flight() *FlightRecorder { return processFlight.Load() }

// FlightHandler tees every slog record into the flight recorder before (and
// regardless of whether) the wrapped handler emits it: the ring sees DEBUG
// lines even when the visible log level is INFO, which is exactly what a
// post-mortem wants.  Wrap the handler a tool already built:
//
//	slog.New(obs.NewFlightHandler(inner, obs.EnableFlight(0)))
type FlightHandler struct {
	inner slog.Handler
	f     *FlightRecorder
	attrs string // pre-rendered WithAttrs context
}

// NewFlightHandler wraps inner so every record is also appended to f.
func NewFlightHandler(inner slog.Handler, f *FlightRecorder) *FlightHandler {
	return &FlightHandler{inner: inner, f: f}
}

// Enabled always claims interest: the ring captures all levels; the wrapped
// handler's own Enabled gates what reaches the visible log in Handle.
func (h *FlightHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle appends the record to the ring, then delegates when the wrapped
// handler wants the level.
func (h *FlightHandler) Handle(ctx context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(h.attrs)
	r.Attrs(func(a slog.Attr) bool {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value.String())
		return true
	})
	h.f.Record(r.Level.String(), "log", r.Message, b.String())
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

// WithAttrs pre-renders the attributes for the ring and forwards them to the
// wrapped handler.
func (h *FlightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	var b strings.Builder
	b.WriteString(h.attrs)
	for _, a := range attrs {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value.String())
	}
	return &FlightHandler{inner: h.inner.WithAttrs(attrs), f: h.f, attrs: b.String()}
}

// WithGroup forwards the group to the wrapped handler (the flat ring line
// ignores grouping).
func (h *FlightHandler) WithGroup(name string) slog.Handler {
	return &FlightHandler{inner: h.inner.WithGroup(name), f: h.f, attrs: h.attrs}
}

// DumpFlight writes the process recorder to stderr (text) and, when path is
// non-empty, to path as JSON.  It is the shared tail of the panic and SIGQUIT
// paths and safe to call with the recorder unarmed (it reports that instead).
func DumpFlight(path, reason string) {
	f := Flight()
	if f == nil {
		fmt.Fprintf(os.Stderr, "[flight] %s: recorder not armed\n", reason)
		return
	}
	fmt.Fprintf(os.Stderr, "[flight] %s: last %d of %d records\n", reason, len(f.Snapshot()), f.Total())
	f.WriteText(os.Stderr)
	if path == "" {
		return
	}
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "[flight] writing %s: %v\n", path, err)
		return
	}
	werr := f.WriteJSON(out)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "[flight] writing %s: %v\n", path, werr)
		return
	}
	fmt.Fprintf(os.Stderr, "[flight] dump written to %s\n", path)
}

// flightDumpPath is where the crash paths dump the ring as JSON ("" = stderr
// only).  Set once at startup via SetFlightDumpPath.
var flightDumpPath atomic.Pointer[string]

// SetFlightDumpPath names the file the panic and SIGQUIT dumps write.
func SetFlightDumpPath(path string) { flightDumpPath.Store(&path) }

// FlightDumpPath returns the configured crash-dump path ("" when unset).
func FlightDumpPath() string {
	if p := flightDumpPath.Load(); p != nil {
		return *p
	}
	return ""
}

// DumpFlightOnPanic recovers a panic on the calling goroutine, dumps the
// flight recorder (to stderr and to the configured dump path), and re-panics
// with the original value so the process still dies loudly.  Defer it at the
// top of main-goroutine entry points:
//
//	defer obs.DumpFlightOnPanic()
func DumpFlightOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	DumpFlight(FlightDumpPath(), fmt.Sprintf("panic: %v", r))
	panic(r)
}

// InstallFlightSIGQUIT replaces the runtime's default SIGQUIT behaviour with
// an instrumented one: dump the flight recorder (stderr + configured path),
// then print all goroutine stacks and exit 2 — the same observable outcome as
// the default handler, with the ring in front of it.  Returns an uninstall
// func for tests.
func InstallFlightSIGQUIT() (uninstall func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		case <-ch:
		}
		DumpFlight(FlightDumpPath(), "SIGQUIT")
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		os.Stderr.Write(buf[:n]) //nolint:errcheck
		os.Exit(2)
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// HandleFlight serves the process flight recorder as JSON — the body behind
// GET /debug/flight on both the serve daemon and the -pprof-addr listener.
func HandleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	f := Flight()
	if f == nil {
		fmt.Fprint(w, `{"total":0,"cap":0,"records":[]}`+"\n")
		return
	}
	f.WriteJSON(w) //nolint:errcheck
}

// RegisterDebug mounts the shared debug surface on mux: the five
// net/http/pprof handlers plus GET /debug/flight.  Both the tools'
// -pprof-addr listener (ServePprof) and the serve daemon's main mux use this
// one registration, so the debug surface cannot drift between them.
func RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flight", HandleFlight)
}
