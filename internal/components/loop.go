package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// Loop is the loop predictor of §III-G.5, a simplified version of the one in
// TAGE-SC-L: it learns branches with a regular trip count (taken N-1 times,
// then not-taken once, or the inverse) and overrides the base prediction at
// the loop exit once confident.
//
// Unlike the global-history components, the loop predictor keeps *local*
// speculative state (the in-flight iteration counter), so it exercises the
// full event set of §III-E:
//
//   - fire: speculatively advance the iteration counter at predict time;
//   - repair: restore the counter from metadata when the walk squashes a
//     misspeculated prediction;
//   - mispredict: immediate retraining of confidence/trip count;
//   - update: commit-time training.
//
// The metadata stores the entry's pre-fire contents so repair can restore
// them exactly — "track the contents of its counter entries such that it can
// restore those entries during the repair phase" (§III-G.5).
type Loop struct {
	component
	idxBits uint
	tagBits uint
	entries []loopEntry

	scratch pred.Packet
	metaBuf [1]uint64
}

type loopEntry struct {
	tag     uint64
	trip    uint16 // learned trip count (#iterations between exits)
	specCnt uint16 // speculative in-flight iteration counter
	archCnt uint16 // committed iteration counter
	conf    uint8  // 3-bit confidence
	dir     bool   // the loop's repeating direction (almost always taken)
	valid   bool
}

const (
	loopCntBits  = 10
	loopConfMax  = 7
	loopConfBits = 3
)

// LoopParams configures a loop predictor.
type LoopParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int
	TagBits uint
}

// NewLoop builds the loop predictor.
func NewLoop(cfg pred.Config, p LoopParams) *Loop {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: Loop entries must be a power of two")
	}
	if p.TagBits == 0 {
		p.TagBits = 10
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	return &Loop{
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 0),
		idxBits:   bitutil.Clog2(p.Entries),
		tagBits:   p.TagBits,
		entries:   make([]loopEntry, p.Entries),
		scratch:   make(pred.Packet, cfg.FetchWidth),
	}
}

// MetaWords implements pred.Subcomponent: word 0 = packed pre-fire entry
// snapshot + slot + hit.
func (l *Loop) MetaWords() int { return 1 }

// index hashes the *branch* PC (slot-granular, not packet-granular: a loop
// predictor tracks an individual branch).
func (l *Loop) index(brPC uint64) int {
	return int(bitutil.MixPC(brPC, l.cfg.InstOff(), l.idxBits))
}

func (l *Loop) tagOf(brPC uint64) uint64 {
	return (brPC >> (l.cfg.InstOff() + l.idxBits)) & bitutil.Mask(l.tagBits)
}

// packEntry packs an entry snapshot into a metadata word.
func packEntry(e loopEntry) uint64 {
	v := uint64(e.trip) | uint64(e.specCnt)<<16 | uint64(e.archCnt)<<32
	v |= uint64(e.conf) << 48
	if e.dir {
		v |= 1 << 52
	}
	if e.valid {
		v |= 1 << 53
	}
	return v
}

func unpackEntry(v uint64, tag uint64) loopEntry {
	return loopEntry{
		tag:     tag,
		trip:    uint16(v),
		specCnt: uint16(v >> 16),
		archCnt: uint16(v >> 32),
		conf:    uint8(v>>48) & 7,
		dir:     v>>52&1 == 1,
		valid:   v>>53&1 == 1,
	}
}

// findSlot locates the packet slot the loop predictor will speak for: the
// first slot whose entry hits.  §III-C: single-prediction components "learn
// the index into the fetch-packet at which to provide the prediction" — here
// the index is recovered by probing each slot PC's entry.
func (l *Loop) findSlot(pc uint64) (slot, idx int, hit bool) {
	for s := 0; s < l.cfg.FetchWidth; s++ {
		spc := l.cfg.SlotPC(pc, s)
		i := l.index(spc)
		if l.entries[i].valid && l.entries[i].tag == l.tagOf(spc) {
			return s, i, true
		}
	}
	return 0, 0, false
}

// Predict implements pred.Subcomponent.
func (l *Loop) Predict(q *pred.Query) pred.Response {
	slot, idx, hit := l.findSlot(q.PC)
	meta := uint64(0)
	overlay := l.scratch
	for i := range overlay {
		overlay[i] = pred.Pred{}
	}
	if hit {
		e := l.entries[idx]
		meta = packEntry(e) | uint64(slot)<<56 | 1<<60
		if e.conf == loopConfMax && e.trip > 0 {
			exit := e.specCnt+1 >= e.trip
			taken := e.dir
			if exit {
				taken = !e.dir
			}
			overlay[slot] = pred.Pred{
				DirValid:    true,
				Taken:       taken,
				DirProvider: l.id,
			}
		}
	}
	l.metaBuf[0] = meta
	return pred.Response{Overlay: overlay, Meta: l.metaBuf[:]}
}

// Fire implements pred.Subcomponent: the loop predictor "is updated at query
// time" (§III-G.5) — advance the speculative iteration counter for the
// predicted direction.
func (l *Loop) Fire(e *pred.Event) {
	hit := e.Meta[0]>>60&1 == 1
	if !hit {
		return
	}
	slot := int(e.Meta[0] >> 56 & 0xf)
	if slot >= len(e.Slots) || !e.Slots[slot].Valid || !e.Slots[slot].IsBranch {
		return
	}
	spc := l.cfg.SlotPC(e.PC, slot)
	idx := l.index(spc)
	ent := &l.entries[idx]
	if !ent.valid || ent.tag != l.tagOf(spc) {
		return
	}
	predTaken := e.Slots[slot].Taken // predicted direction at fire time
	if predTaken == ent.dir {
		if uint64(ent.specCnt) < bitutil.Mask(loopCntBits) {
			ent.specCnt++
		}
	} else {
		ent.specCnt = 0 // predicted exit: next iteration restarts
	}
}

// Repair implements pred.Subcomponent: restore the entry's speculative
// counter from the metadata snapshot taken before fire.
func (l *Loop) Repair(e *pred.Event) {
	hit := e.Meta[0]>>60&1 == 1
	if !hit {
		return
	}
	slot := int(e.Meta[0] >> 56 & 0xf)
	spc := l.cfg.SlotPC(e.PC, slot)
	idx := l.index(spc)
	snap := unpackEntry(e.Meta[0], l.tagOf(spc))
	ent := &l.entries[idx]
	if !ent.valid || ent.tag != snap.tag {
		return // entry was since re-allocated; nothing to repair
	}
	ent.specCnt = snap.specCnt
}

// Mispredict implements pred.Subcomponent: fast retrain on a mispredicted
// branch the loop predictor spoke for (or should have).
func (l *Loop) Mispredict(e *pred.Event) {
	l.train(e, true)
}

// Update implements pred.Subcomponent: commit-time training.
func (l *Loop) Update(e *pred.Event) {
	l.train(e, false)
}

func (l *Loop) train(e *pred.Event, misp bool) {
	for slot, s := range e.Slots {
		if !s.Valid || !s.IsBranch || slot >= l.cfg.FetchWidth {
			continue
		}
		spc := l.cfg.SlotPC(e.PC, slot)
		idx := l.index(spc)
		ent := &l.entries[idx]
		tag := l.tagOf(spc)
		if !ent.valid || ent.tag != tag {
			// Allocate only on a mispredicted branch — loops are learned
			// from the mistakes of the base predictor (§III-G.5: "attempts
			// to correct periodic mispredictions made by a base predictor").
			if misp && s.Mispredicted {
				*ent = loopEntry{
					tag: tag, valid: true, dir: s.Taken,
					trip: 0, specCnt: 0, archCnt: 0, conf: 0,
				}
			}
			continue
		}
		if misp && !s.Mispredicted {
			continue
		}
		if s.Taken == ent.dir {
			// Another iteration of the body.
			if uint64(ent.archCnt) < bitutil.Mask(loopCntBits) {
				ent.archCnt++
			} else {
				// Too long to track: invalidate.
				ent.valid = false
			}
			continue
		}
		// Exit observed: does the trip count repeat?
		observed := ent.archCnt + 1
		if ent.trip == observed && ent.trip > 0 {
			if ent.conf < loopConfMax {
				ent.conf++
			}
		} else {
			if ent.conf > 0 {
				ent.conf = 0
			}
			ent.trip = observed
		}
		ent.archCnt = 0
		// Commit-time resync of the speculative counter: in steady state
		// spec leads arch; after an exit both restart together unless
		// speculation is further ahead (left to fire/repair).
		if misp {
			ent.specCnt = 0
		}
	}
}

// Reset implements pred.Subcomponent.
func (l *Loop) Reset() {
	for i := range l.entries {
		l.entries[i] = loopEntry{}
	}
}

// Budget implements pred.Subcomponent: the entry table is charged as one
// SRAM, though it is modelled as a Go slice rather than an sram.Mem.
func (l *Loop) Budget() sram.Budget {
	per := int(l.tagBits) + 3*loopCntBits + loopConfBits + 1 + 1
	return sram.Budget{Mems: []sram.Spec{{
		Name:       l.name,
		Entries:    len(l.entries),
		Width:      per,
		ReadPorts:  1,
		WritePorts: 1,
	}}}
}

var _ pred.Subcomponent = (*Loop)(nil)
