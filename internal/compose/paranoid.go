package compose

import (
	"fmt"

	"cobra/internal/bitutil"
)

// InvariantError is a structured paranoid-mode violation report naming the
// pipeline operation, the offending component (when attributable), the cycle,
// and the history-file entry involved.
type InvariantError struct {
	// Op is the pipeline operation after which the check fired: "Predict",
	// "Accept", "ReAccept", "Resolve", "Commit", or "SquashAll" — or
	// "Core.step" for the host core's scheduler check (ReportViolation).
	Op string
	// Component is the sub-component instance the violation is attributed
	// to, or "" for a pipeline-level (history file / history provider)
	// violation.
	Component string
	// Cycle is the pipeline cycle of the operation.
	Cycle uint64
	// EntrySeq is the allocation sequence number of the history-file entry
	// involved, or 0 when the violation is not entry-specific.
	EntrySeq uint64
	// Detail describes the violated invariant.
	Detail string
}

func (e *InvariantError) Error() string {
	comp := ""
	if e.Component != "" {
		comp = " component " + e.Component
	}
	seq := ""
	if e.EntrySeq != 0 {
		seq = fmt.Sprintf(" entry#%d", e.EntrySeq)
	}
	return fmt.Sprintf("compose: invariant violation after %s at cycle %d:%s%s %s",
		e.Op, e.Cycle, comp, seq, e.Detail)
}

// maxViolations bounds the retained violation list; the total count keeps
// incrementing past it.
const maxViolations = 100

// Violations returns the invariant violations recorded so far (paranoid mode
// only; at most maxViolations are retained).
func (p *Pipeline) Violations() []*InvariantError {
	return append([]*InvariantError(nil), p.violations...)
}

// ViolationCount returns the total number of violations detected, including
// any beyond the retained list.
func (p *Pipeline) ViolationCount() uint64 { return p.vioTotal }

// Paranoid reports whether the invariant checker is armed.
func (p *Pipeline) Paranoid() bool { return p.paranoid }

// ReportViolation records an invariant violation found by a checker outside
// the pipeline (the host core's scheduler check) on the same list, so it
// surfaces through Violations like every pipeline invariant.
func (p *Pipeline) ReportViolation(op string, cycle uint64, format string, args ...any) {
	p.reportViolation(op, "", cycle, 0, format, args...)
}

func (p *Pipeline) reportViolation(op, comp string, cycle, seq uint64, format string, args ...any) {
	p.vioTotal++
	if len(p.violations) < maxViolations {
		p.violations = append(p.violations, &InvariantError{
			Op: op, Component: comp, Cycle: cycle, EntrySeq: seq,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// metaSum is the checksum pinned over each component's metadata blob at
// predict time; every later check verifies the round-trip (§III-D: events
// hand the blob back verbatim).
func metaSum(words []uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, w := range words {
		h ^= w
		h *= 0x100000001b3
	}
	return h
}

// applyShifts replays an entry's recorded speculative history bits onto a
// snapshot's raw words (the same shift the live register performed), masked
// to the architected length — the reference for the snapshot/shift chain
// invariant.  The result is built in dst's backing array (grown if short),
// so the checker reuses one scratch buffer and stays allocation-free.
func applyShifts(dst, hist []uint64, length uint, shifts []bool) []uint64 {
	out := append(dst[:0], hist...)
	for _, taken := range shifts {
		carry := uint64(0)
		if taken {
			carry = 1
		}
		for i := range out {
			next := out[i] >> 63
			out[i] = out[i]<<1 | carry
			carry = next
		}
		if rem := length % 64; rem != 0 && len(out) > 0 {
			out[len(out)-1] &= bitutil.Mask(rem)
		}
	}
	return out
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkInvariants runs the paranoid-mode validator after a public pipeline
// operation.  It is only the mode check, so it inlines at every call site and
// a pipeline outside paranoid mode pays a field load, not a call.
func (p *Pipeline) checkInvariants(op string, cycle uint64) {
	if p.paranoid {
		p.validate(op, cycle)
	}
}

// validate is the paranoid-mode validator.  It is strictly
// observation-only: nothing it reads is mutated, so enabling paranoid mode
// cannot change simulation results.
//
// Checked invariants:
//
//  1. In-flight count bounds: 0 <= count <= capacity, and the ring holds
//     exactly count valid entries, contiguous from the oldest.
//  2. Monotone entry order: allocation sequence numbers strictly increase
//     from oldest to youngest (the forwards-walk direction).
//  3. Snapshot/shift chain (repairing policies only): each entry's pre-shift
//     global-history snapshot equals its elder's snapshot with the elder's
//     recorded speculative bits applied, and the live register equals the
//     youngest entry's snapshot plus its bits — i.e. snapshot restore plus
//     re-fire round-trips exactly after every repair.
//  4. Folded-history sync: every attached folded register matches the
//     reference fold of the live history words.
//  5. Metadata round-trip: every live entry's per-component metadata blob
//     still matches the checksum pinned at predict time (§III-D).
func (p *Pipeline) validate(op string, cycle uint64) {
	hf := p.hf

	// 1. Count bounds and ring validity.
	if hf.count < 0 || hf.count > len(hf.ring) {
		p.reportViolation(op, "", cycle, 0,
			"in-flight count %d out of bounds [0,%d]", hf.count, len(hf.ring))
		return // the ring walk below would be meaningless
	}
	for i := range hf.ring {
		// Slot i is occupied iff its distance past the head is below count.
		age := (i - hf.head + len(hf.ring)) % len(hf.ring)
		if live := age < hf.count; hf.ring[i].valid != live {
			p.reportViolation(op, "", cycle, hf.ring[i].seq,
				"ring slot %d validity %v disagrees with occupancy [head=%d count=%d]",
				i, hf.ring[i].valid, hf.head, hf.count)
		}
	}

	// 2. Monotone entry order, oldest to youngest.
	var prev *Entry
	for i := 0; i < hf.count; i++ {
		e := &hf.ring[(hf.head+i)%len(hf.ring)]
		if prev != nil && e.seq <= prev.seq {
			p.reportViolation(op, "", cycle, e.seq,
				"entry order not monotone: seq %d follows seq %d", e.seq, prev.seq)
		}
		prev = e
	}

	// 3. Snapshot/shift chain.  GHRNoRepair deliberately leaves stale bits
	// in the live register, so the chain only holds for repairing policies.
	if p.Opt.GHRPolicy != GHRNoRepair {
		for i := 0; i < hf.count; i++ {
			e := &hf.ring[(hf.head+i)%len(hf.ring)]
			p.shiftScratch = applyShifts(p.shiftScratch, e.preSnap.Hist(), p.Global.Len(), e.shifts)
			var y *Entry // the next-younger entry, or nil for the live register
			want := p.Global.Raw()
			if i+1 < hf.count {
				y = &hf.ring[(hf.head+i+1)%len(hf.ring)]
				want = y.preSnap.Hist()
			}
			if !wordsEqual(p.shiftScratch, want) {
				which := "live global history"
				if y != nil {
					which = fmt.Sprintf("entry#%d snapshot", y.seq)
				}
				p.reportViolation(op, "", cycle, e.seq,
					"snapshot/shift chain broken: snapshot + %d recorded bits != %s (restore round-trip violated)",
					len(e.shifts), which)
			}
		}
	}

	// 4. Folded-history sync.
	if idx, ok := p.Global.CheckFolds(); !ok {
		p.reportViolation(op, "", cycle, 0,
			"folded history register %d desynced from global history", idx)
	}

	// 5. Metadata round-trip checksums.
	for i := 0; i < hf.count; i++ {
		e := &hf.ring[(hf.head+i)%len(hf.ring)]
		if len(e.metaSums) != len(p.nodes) {
			continue
		}
		for ni, n := range p.nodes {
			if n.comp.MetaWords() == 0 {
				continue
			}
			if got := metaSum(e.metas[ni]); got != e.metaSums[ni] {
				p.reportViolation(op, n.name, cycle, e.seq,
					"metadata blob corrupted since predict (checksum %#x, want %#x)",
					got, e.metaSums[ni])
			}
		}
	}
}
