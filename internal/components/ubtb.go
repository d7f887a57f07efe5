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
	tagBits  uint
	tagShift uint   // fetch-packet offset bits of the PC
	tagMask  uint64 // Mask(tagBits)

	// keys[i] is entry i's tag with ubtbValid set, or 0 while the entry is
	// invalid: the fully associative search scans one dense array.
	keys    []uint64
	entries []ubtbEntry
	clock   uint32
}

// ubtbValid marks a live key; tags are at most 63 bits.
const ubtbValid = 1 << 63

type ubtbEntry struct {
	target uint64
	lru    uint32 // last-touch stamp for replacement
	slot   uint8
	kind   uint8 // btbKind*
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
	if p.TagBits > 63 {
		panic("components: uBTB tags must be at most 63 bits")
	}
	return &UBTB{
		// Latency 1 is its point.  One metadata word: hit flag | entry<<1.
		component: newComponent(cfg, p.Name, p.ID, 1, 0, 1),
		tagBits:   p.TagBits,
		tagShift:  cfg.PktOff(),
		tagMask:   bitutil.Mask(p.TagBits),
		keys:      make([]uint64, p.Entries),
		entries:   make([]ubtbEntry, p.Entries),
	}
}

func (u *UBTB) tagOf(pc uint64) uint64 {
	return pc >> u.tagShift & u.tagMask
}

func (u *UBTB) find(pc uint64) int {
	key := u.tagOf(pc) | ubtbValid
	for i, k := range u.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Predict implements pred.Subcomponent.  Per §III-B a latency-1 component
// never sees history inputs; the composer hands it zeroed history and this
// implementation reads only q.PC.  It writes every overlay slot (all but
// the hit slot pass through) and its metadata word.
func (u *UBTB) Predict(q *pred.Query) pred.Response {
	overlay, meta := u.response()
	i := u.find(q.PC)
	hitSlot := -1 // the slot asserted taken, if any
	meta[0] = 0   // hit flag | entry<<1; a miss is 0
	if i >= 0 {
		u.clock++
		u.entries[i].lru = u.clock
		meta[0] = 1 | uint64(i)<<1
		if e := &u.entries[i]; bitutil.CtrTaken(e.hyst, 2) {
			hitSlot = int(e.slot)
		}
	}
	for s := range overlay {
		var p pred.Pred
		if s == hitSlot {
			e := &u.entries[i]
			p = pred.Pred{
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
		overlay[s] = p
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
		victim, best := 0, u.entries[0].lru
		for j := 1; j < len(u.entries); j++ {
			if u.keys[j] == 0 {
				victim = j
				break
			}
			if u.entries[j].lru < best {
				victim, best = j, u.entries[j].lru
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
		u.keys[victim] = u.tagOf(e.PC) | ubtbValid
		u.entries[victim] = ubtbEntry{target: s.Target, lru: u.clock, slot: uint8(slot), kind: kind, hyst: 2}
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
		u.keys[i] = 0
		u.entries[i] = ubtbEntry{}
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
