// Package history implements the history providers the COBRA composer
// generates (§IV-B.3): a speculatively updated global history register with
// snapshot-based repair, a PC-indexed local history table repaired by the
// forwards-walk mechanism, and a path history register (the extension the
// paper names as a candidate new provider).
//
// The global history register is the structure §VI-B identifies as the most
// dangerous to misspeculation: wrong-path fetch shifts bogus bits in, which
// corrupts every prediction until repair.  Following the paper's initial
// implementation, repair restores a full snapshot stored in the history
// file; the (optional) fetch-replay policy layered on top lives in the
// frontend model.
package history

import (
	"cobra/internal/bitutil"
	"cobra/internal/sram"
)

// Global is a speculative global branch-history register of Len bits, with
// any number of attached folded-history registers kept incrementally in sync
// (the hardware-realistic way TAGE-class components consume long histories).
type Global struct {
	length uint
	hist   []uint64 // bit 0 of word 0 = most recent outcome
	folds  []fold

	// SpecShifts counts speculative shifts since reset (for reports).
	SpecShifts uint64
	// Restores counts snapshot restores (repair events).
	Restores uint64
}

// fold is an attached folded register plus where its outgoing bit lives:
// bit shift of hist[word] is the history bit of age HistLen()-1, the one
// that leaves the fold's window on the next shift.
type fold struct {
	*bitutil.FoldedHistory
	word  int
	shift uint
}

// NewGlobal returns a global history register of length bits.
func NewGlobal(length uint) *Global {
	if length == 0 {
		panic("history: global history length must be > 0")
	}
	words := (length + 63) / 64
	return &Global{length: length, hist: make([]uint64, words)}
}

// Len returns the history length in bits.
func (g *Global) Len() uint { return g.length }

// NewFold attaches a folded view covering histLen bits compressed to width
// bits and returns its handle.  histLen must not exceed the register length.
func (g *Global) NewFold(histLen, width uint) *bitutil.FoldedHistory {
	if histLen > g.length {
		panic("history: fold longer than global history register")
	}
	f := bitutil.NewFoldedHistory(histLen, width)
	age := max(histLen, 1) - 1 // a zero-length fold ignores its outgoing bit
	g.folds = append(g.folds, fold{f, int(age / 64), age % 64})
	return f
}

// Shift speculatively inserts one branch outcome (most-recent position).
func (g *Global) Shift(taken bool) {
	for _, f := range g.folds {
		f.Update(taken, g.hist[f.word]>>f.shift&1 != 0)
	}
	carry := uint64(0)
	if taken {
		carry = 1
	}
	for i := range g.hist {
		next := g.hist[i] >> 63
		g.hist[i] = g.hist[i]<<1 | carry
		carry = next
	}
	// Clear bits beyond the architected length so snapshots compare equal
	// regardless of shift count.
	if rem := g.length % 64; rem != 0 {
		g.hist[len(g.hist)-1] &= bitutil.Mask(rem)
	}
	g.SpecShifts++
}

// Bits returns the most recent n bits of history (n <= 64).
func (g *Global) Bits(n uint) uint64 {
	if n > 64 {
		panic("history: Bits supports up to 64 bits; use Raw for longer")
	}
	if n > g.length {
		n = g.length
	}
	return g.hist[0] & bitutil.Mask(n)
}

// Raw returns the underlying history words (read-only view).
func (g *Global) Raw() []uint64 { return g.hist }

// Snapshot captures the register and all folds for later restore.  The
// paper's simple implementation stores exactly such snapshots in the history
// file; a more efficient pointer-into-circular-buffer GHR is noted as future
// work there and modelled only in the area report.
type Snapshot struct {
	hist  []uint64
	folds []uint64
}

// Hist returns the snapshotted history words (read-only view; bit 0 of word
// 0 is the most recent outcome).  Events hand this back to sub-components as
// "the same histories provided at predict time" (§III-E).
func (s *Snapshot) Hist() []uint64 { return s.hist }

// Snapshot captures the current state.
func (g *Global) Snapshot() Snapshot {
	var s Snapshot
	g.SnapshotInto(&s)
	return s
}

// SnapshotInto captures the current state into s, reusing s's backing
// arrays when they are large enough — the zero-allocation capture path the
// history file uses for its per-entry snapshots (each entry owns its
// snapshot buffers, so a recycled entry's capture allocates nothing).
func (g *Global) SnapshotInto(s *Snapshot) {
	s.hist = append(s.hist[:0], g.hist...)
	if cap(s.folds) < len(g.folds) {
		s.folds = make([]uint64, len(g.folds))
	}
	s.folds = s.folds[:len(g.folds)]
	for i, f := range g.folds {
		s.folds[i] = f.Fold()
	}
}

// Restore rewinds the register and folds to a snapshot.
func (g *Global) Restore(s Snapshot) {
	copy(g.hist, s.hist)
	for i, f := range g.folds {
		f.SetRaw(s.folds[i])
	}
	g.Restores++
}

// CheckFolds verifies every attached folded register against a reference
// fold recomputed from the live history words (the paranoid-mode sync
// invariant).  It returns the index of the first desynced fold and false, or
// (0, true) when all folds match.
func (g *Global) CheckFolds() (int, bool) {
	for i, f := range g.folds {
		if f.Fold() != bitutil.FoldBits(g.hist, f.HistLen(), f.Width()) {
			return i, false
		}
	}
	return 0, true
}

// Reset clears the history and folds.
func (g *Global) Reset() {
	for i := range g.hist {
		g.hist[i] = 0
	}
	for _, f := range g.folds {
		f.SetRaw(0)
	}
	g.SpecShifts, g.Restores = 0, 0
}

// Budget reports the flop cost of the register plus folds (history registers
// are flop-based, not SRAM).
func (g *Global) Budget() sram.Budget {
	bits := int(g.length)
	for _, f := range g.folds {
		bits += int(f.Width())
	}
	return sram.Budget{FlopBits: bits}
}
