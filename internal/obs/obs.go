// Package obs is the observability layer: cycle-level event tracing for the
// composed predictor pipeline, per-branch misprediction attribution (H2P
// analysis), and runner telemetry (live metrics, progress reporting, and a
// Prometheus-style text endpoint).
//
// The design contract is zero cost when disabled: every producer guards its
// emit sites with a single nil check, so a pipeline or core built without an
// Observer/BranchProfile/Metrics attached runs the exact instruction sequence
// it ran before this package existed, and golden outputs stay byte-identical.
//
// Event sources:
//
//   - compose.Pipeline emits one record per sub-component for each of the
//     five §III-E interface events (predict, fire, mispredict, repair,
//     update) plus one per squashed history-file entry;
//   - uarch.Core emits frontend redirect records (deeper-stage overrides,
//     pre-decode redirects, backend mispredict flushes, fetch replays).
//
// Records land in a fixed-size ring-buffered Tracer and export to either the
// Chrome trace_event JSON format (load in chrome://tracing or Perfetto) or a
// compact binary format read back by the cobra-events tool.
package obs

import "sync"

// Kind classifies a traced event.
type Kind uint8

// The five sub-component interface events (§III-E) plus the frontend-level
// records the pipeline and core emit around them.
const (
	KPredict    Kind = iota // component issued a prediction (predict signal)
	KFire                   // speculative update for an accepted packet
	KMispredict             // fast update on the mispredicting packet
	KRepair                 // speculative state rollback for a packet
	KUpdate                 // commit-time update for a retiring packet
	KRedirect               // frontend redirect (override, pre-decode, resolve, replay)
	KSquash                 // a history-file entry was squashed
	numKinds
)

var kindNames = [numKinds]string{
	"predict", "fire", "mispredict", "repair", "update", "redirect", "squash",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind parses a kind name as printed by Kind.String; ok is false for an
// unknown name.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one typed trace record.  Comp is empty for frontend-level records
// (redirect, squash); Slot is -1 when the record is not tied to a specific
// fetch-packet slot.  MetaSum is the FNV-1a checksum of the component's
// metadata words at the time of the event, letting a trace reader spot
// metadata corruption between predict and the later events without shipping
// the blobs themselves.
type Event struct {
	Cycle   uint64
	PC      uint64 // fetch packet base PC (redirects: the redirect target)
	Seq     uint64 // history-file entry sequence number
	MetaSum uint64
	Kind    Kind
	Slot    int16
	Dur     uint16 // predict: the component's response latency in cycles
	Comp    string // sub-component instance name; "" for frontend records
}

// Observer receives every traced event.  Implementations attached to a
// parallel runner batch are called from multiple goroutines and must be
// safe for concurrent use (Tracer is).
type Observer interface {
	Event(ev *Event)
}

// Opinion is one sub-component's own direction opinion for a fetch-packet
// slot, recorded at predict time — the raw overlay before composition, so an
// overridden component's correct prediction is still visible for
// attribution.
type Opinion struct {
	Comp     string
	DirValid bool
	Taken    bool
}

// MetaSum is the FNV-1a checksum over metadata words used in event records.
// It folds each word's eight bytes, low byte first; paranoid mode's
// round-trip checksum (compose.metaSum) folds whole words instead, so the
// two sums of one blob differ.
func MetaSum(words []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xFF
			h *= prime
		}
	}
	return h
}

// DefaultTracerCap is the ring capacity NewTracer(0) allocates: enough for
// the tail of a long run without unbounded growth.
const DefaultTracerCap = 1 << 16

// Tracer is a fixed-size ring-buffered Observer: it keeps the most recent
// capacity events and counts the rest as dropped.  Safe for concurrent use,
// so one Tracer may observe every pipeline of a parallel runner batch.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // ring index of the next write
	total uint64 // events ever appended
}

// NewTracer returns a tracer holding the last capacity events (0 means
// DefaultTracerCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Event implements Observer.
func (t *Tracer) Event(ev *Event) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, *ev)
	} else {
		t.buf[t.next] = *ev
	}
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Events returns a snapshot of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
	}
	return append(out, t.buf[:t.next]...)
}

// Total returns how many events were ever observed (buffered + dropped).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events fell off the ring.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}
