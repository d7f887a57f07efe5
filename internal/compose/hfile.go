package compose

import (
	"cobra/internal/history"
	"cobra/internal/pred"
)

// Entry is one record of the generated history file (§IV-B.1): a circular
// buffer tracking the state of predictions in the pipeline.  Each fetch
// packet in flight owns one entry holding the fetch PC, the pre-shift global
// history snapshot, the local/path histories read at predict time, every
// sub-component's metadata, the accepted prediction view, and the per-slot
// speculation/resolution records.  Entries are dequeued in program order as
// the core commits branches, triggering commit-time update events.
type Entry struct {
	valid bool
	seq   uint64
	idx   int // position in the ring

	PC uint64

	preSnap  history.Snapshot // global history before this packet's shifts
	prePath  uint64
	ghistLow uint64 // low 64 bits of global history at predict time
	lhist    uint64
	path     uint64

	metas [][]uint64 // per pipeline node, topo order

	// Used is the prediction view the frontend most recently accepted for
	// this packet (it is refined as deeper stages respond).
	Used pred.Packet
	// Slots carries the per-slot speculation records (predicted directions
	// at fire time) and, once the backend resolves, the outcomes.
	Slots []pred.SlotInfo
	// CfiIdx is the slot of the packet-ending control-flow instruction
	// (-1 if the packet runs to its end).
	CfiIdx int
	// NextPC is the accepted prediction of the next fetch address.
	NextPC uint64

	fired      bool
	shifts     []bool // speculative global-history bits this entry inserted
	lhistSaves []lhistSave
	metaBuf    []uint64 // backing arena for metas (reused across allocations)
	metaSums   []uint64 // paranoid mode: per-node metadata checksums at predict
	ops        []uint8  // opinion tracking: per node x slot direction opinions

	// stages is the per-stage final-prediction vector Predict returns,
	// owned by the entry so steady-state prediction allocates nothing.  The
	// slice stays valid until this history-file slot is reallocated (the
	// frontend drops its reference no later than the entry's own death).
	stages []pred.Packet
}

type lhistSave struct {
	pc  uint64
	old uint64
}

// Seq returns the entry's allocation sequence number (age ordering).
func (e *Entry) Seq() uint64 { return e.seq }

// Valid reports whether the entry is still live (not squashed/committed).
func (e *Entry) Valid() bool { return e.valid }

// RingIndex returns the entry's position in the history-file ring.  Live
// entries occupy distinct positions, so a host can keep per-entry state in
// a slice of Options.HFEntries records, tagged with Seq to tell a
// position's reuses apart.
func (e *Entry) RingIndex() int { return e.idx }

// historyFile is the ring of entries plus the repair state machine
// bookkeeping (§IV-B.2).
type historyFile struct {
	ring  []Entry
	head  int // oldest
	count int
	seq   uint64
}

func newHistoryFile(entries, fetchWidth int) *historyFile {
	hf := &historyFile{ring: make([]Entry, entries)}
	for i := range hf.ring {
		hf.ring[i].idx = i
		hf.ring[i].Slots = make([]pred.SlotInfo, fetchWidth)
	}
	return hf
}

// at maps an age position i (0 = oldest, i < len(ring)) to its ring index:
// one conditional wrap instead of a division.
func (hf *historyFile) at(i int) int {
	j := hf.head + i
	if j >= len(hf.ring) {
		j -= len(hf.ring)
	}
	return j
}

func (hf *historyFile) full() bool  { return hf.count == len(hf.ring) }
func (hf *historyFile) empty() bool { return hf.count == 0 }

// alloc claims the next entry (caller must have checked full()).
func (hf *historyFile) alloc() *Entry {
	idx := hf.at(hf.count)
	hf.count++
	hf.seq++
	e := &hf.ring[idx]
	// Reset field by field: the per-entry buffers (metadata arena, stage
	// vector, snapshot words, slot records) are reused in place.  Predict
	// overwrites the snapshot and the histories, and Accept the slot
	// records, before anything reads them.
	e.valid, e.seq, e.PC = true, hf.seq, 0
	e.prePath, e.ghistLow, e.lhist, e.path = 0, 0, 0, 0
	e.Used, e.CfiIdx, e.NextPC, e.fired = nil, -1, 0, false
	e.shifts, e.lhistSaves = e.shifts[:0], e.lhistSaves[:0]
	e.metaSums, e.ops = e.metaSums[:0], e.ops[:0]
	return e
}

// oldest returns the oldest live entry, or nil.
func (hf *historyFile) oldest() *Entry {
	if hf.empty() {
		return nil
	}
	return &hf.ring[hf.head]
}

// youngest returns the youngest live entry, or nil.
func (hf *historyFile) youngest() *Entry {
	if hf.empty() {
		return nil
	}
	return &hf.ring[hf.at(hf.count-1)]
}

// dequeue retires the oldest entry.
func (hf *historyFile) dequeue() {
	if hf.empty() {
		panic("compose: dequeue from empty history file")
	}
	hf.ring[hf.head].valid = false
	hf.head = hf.at(1)
	hf.count--
}

// popYoungest squashes the youngest entry.
func (hf *historyFile) popYoungest() {
	if hf.empty() {
		panic("compose: pop from empty history file")
	}
	hf.ring[hf.at(hf.count-1)].valid = false
	hf.count--
}

// youngerThan iterates entries strictly younger than e, youngest first,
// calling f on each.
func (hf *historyFile) youngerThan(e *Entry, f func(*Entry)) {
	for i := hf.count - 1; i >= 0; i-- {
		y := &hf.ring[hf.at(i)]
		if y.seq <= e.seq {
			return
		}
		f(y)
	}
}

// forwardFrom iterates entries strictly younger than e, oldest first (the
// direction of the paper's forwards-walk).
func (hf *historyFile) forwardFrom(e *Entry, f func(*Entry)) {
	for i := 0; i < hf.count; i++ {
		y := &hf.ring[hf.at(i)]
		if y.seq <= e.seq {
			continue
		}
		f(y)
	}
}

// countYoungerThan returns how many live entries are younger than e.
func (hf *historyFile) countYoungerThan(e *Entry) int {
	n := 0
	for i := 0; i < hf.count; i++ {
		if hf.ring[hf.at(i)].seq > e.seq {
			n++
		}
	}
	return n
}
