package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// UBTB is the small, fully associative, single-cycle micro-BTB (§III-G.2).
// Because it answers at Fetch-1 — before histories are available (§III-B) —
// it predicts from the fetch PC alone.  Each entry remembers one fetch
// packet's dominant taken control-flow instruction: its slot, kind, and
// target, plus a 2-bit hysteresis counter so a packet whose branch stops
// being taken releases its entry.
//
// The uBTB asserts both direction and target for its hit slot; the paper's
// TAGE-L topology places it lowest in the ordering so any 2- or 3-cycle
// component can override it.
type UBTB struct {
	component
	tagBits uint

	entries []ubtbEntry
	lru     []uint32 // last-touch stamps for replacement
	clock   uint32
}

type ubtbEntry struct {
	valid  bool
	tag    uint64
	slot   uint8
	kind   uint8 // btbKind*
	target uint64
	hyst   uint8 // 2-bit confidence
}

// UBTBParams configures a micro-BTB.
type UBTBParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Entries int
	TagBits uint
}

// NewUBTB builds a 1-cycle micro BTB.
func NewUBTB(cfg pred.Config, p UBTBParams) *UBTB {
	if p.Entries <= 0 {
		panic("components: uBTB needs at least one entry")
	}
	if p.TagBits == 0 {
		p.TagBits = 28
	}
	return &UBTB{
		// Latency 1 is its point.  One metadata word: hit flag | entry<<1.
		component: newComponent(cfg, p.Name, p.ID, 1, 0, 1),
		tagBits:   p.TagBits,
		entries:   make([]ubtbEntry, p.Entries),
		lru:       make([]uint32, p.Entries),
	}
}

func (u *UBTB) tagOf(pc uint64) uint64 {
	return (pc >> u.cfg.PktOff()) & bitutil.Mask(u.tagBits)
}

func (u *UBTB) find(pc uint64) int {
	tag := u.tagOf(pc)
	for i := range u.entries {
		if u.entries[i].valid && u.entries[i].tag == tag {
			return i
		}
	}
	return -1
}

// Predict implements pred.Subcomponent.  Per §III-B a latency-1 component
// never sees history inputs; the composer hands it zeroed history and this
// implementation reads only q.PC.
func (u *UBTB) Predict(q *pred.Query) pred.Response {
	overlay, meta := u.response()
	i := u.find(q.PC)
	if i >= 0 {
		u.clock++
		u.lru[i] = u.clock
		e := u.entries[i]
		meta[0] = 1 | uint64(i)<<1
		if int(e.slot) < u.cfg.FetchWidth && bitutil.CtrTaken(e.hyst, 2) {
			overlay[e.slot] = pred.Pred{
				DirValid:    true,
				Taken:       true,
				TgtValid:    true,
				Target:      e.target,
				IsCFI:       true,
				Kind:        btbKindToPred(int(e.kind)),
				DirProvider: u.id,
				TgtProvider: u.id,
			}
		}
	}
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Mispredict gives the uBTB an immediate correction, keeping the
// single-cycle path fresh after redirects.
func (u *UBTB) Mispredict(e *pred.Event) { u.train(e) }

// Update implements pred.Subcomponent (commit-time training).
func (u *UBTB) Update(e *pred.Event) { u.train(e) }

func (u *UBTB) train(e *pred.Event) {
	// Find the first taken CFI in the packet — the packet's exit point.
	slot := -1
	var s pred.SlotInfo
	for i := range e.Slots {
		if e.Slots[i].Valid && e.Slots[i].Taken {
			slot, s = i, e.Slots[i]
			break
		}
	}
	i := u.find(e.PC)
	if slot < 0 {
		// Packet fell through: weaken any entry so stale taken predictions
		// die out.
		if i >= 0 {
			u.entries[i].hyst = bitutil.SatDec(u.entries[i].hyst, 2)
		}
		return
	}
	if i < 0 {
		// Allocate the least recently used entry.
		victim, best := 0, u.lru[0]
		for j := 1; j < len(u.entries); j++ {
			if !u.entries[j].valid {
				victim = j
				break
			}
			if u.lru[j] < best {
				victim, best = j, u.lru[j]
			}
		}
		kind := uint8(btbKindBranch)
		switch {
		case s.IsRet:
			kind = btbKindRet
		case s.IsCall:
			kind = btbKindCall
		case s.IsIndir:
			kind = btbKindIndirect
		case s.IsJump:
			kind = btbKindJump
		}
		u.clock++
		u.entries[victim] = ubtbEntry{
			valid: true, tag: u.tagOf(e.PC), slot: uint8(slot),
			kind: kind, target: s.Target, hyst: 2,
		}
		u.lru[victim] = u.clock
		return
	}
	ent := &u.entries[i]
	if int(ent.slot) == slot && ent.target == s.Target {
		ent.hyst = bitutil.SatInc(ent.hyst, 2)
		return
	}
	// The packet's exit moved (different slot or target): retrain with
	// hysteresis so a briefly bimodal packet does not thrash.
	ent.hyst = bitutil.SatDec(ent.hyst, 2)
	if ent.hyst == 0 {
		ent.slot = uint8(slot)
		ent.target = s.Target
		ent.hyst = 2
	}
}

// Reset implements pred.Subcomponent.
func (u *UBTB) Reset() {
	for i := range u.entries {
		u.entries[i] = ubtbEntry{}
		u.lru[i] = 0
	}
	u.clock = 0
}

// Budget implements pred.Subcomponent: fully associative structures are
// flop/CAM based.
func (u *UBTB) Budget() sram.Budget {
	per := 1 + int(u.tagBits) + 8 + 3 + btbTargetBits + 2 // valid+tag+slot+kind+target+hyst
	return sram.Budget{FlopBits: len(u.entries) * per}
}

var _ pred.Subcomponent = (*UBTB)(nil)
