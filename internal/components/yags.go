package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// YAGS is "Yet Another Global Scheme" (Eden & Mudge, [16] in the paper):
// a choice bimodal gives the bias, and two small *tagged* direction caches
// store only the exceptions — branches that deviate from their bias under
// particular histories.  Taken-biased branches consult the "not-taken"
// cache and vice versa, halving exception storage versus gshare.
//
// As a composition citizen, YAGS provides a direction for every slot when
// the choice table speaks; exception-cache hits override the bias per slot.
// Metadata carries the choice row and both exception lookups (§III-D).
type YAGS struct {
	component

	choice  *sram.Mem // FetchWidth 2-bit counters per row
	tCache  *sram.Mem // exceptions for not-taken-biased branches (predict taken)
	ntCache *sram.Mem // exceptions for taken-biased branches (predict not-taken)

	// Index and tag fields, fixed at construction.
	choiceHash bitutil.Folder // packet PC folded to idxBits
	exc        pcHistIndex    // slot PC and history folded to excBits
	tagShift   uint           // instruction offset bits of the slot PC
	tagMask    uint64         // Mask(tagBits)
}

// YAGSParams configures a YAGS instance.
type YAGSParams struct {
	Name       string
	ID         pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency    int
	ChoiceRows int
	ExcEntries int
	TagBits    uint
	HistLen    uint
}

// NewYAGS builds the predictor.
func NewYAGS(cfg pred.Config, p YAGSParams) *YAGS {
	if p.ChoiceRows == 0 {
		p.ChoiceRows = 2048
	}
	if p.ExcEntries == 0 {
		p.ExcEntries = 512
	}
	if !bitutil.IsPow2(p.ChoiceRows) || !bitutil.IsPow2(p.ExcEntries) {
		panic("components: YAGS table sizes must be powers of two")
	}
	if p.TagBits == 0 {
		p.TagBits = 8
	}
	if p.HistLen == 0 {
		p.HistLen = 12
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	y := &YAGS{
		// Three metadata words: the choice row and both exception rows, each
		// row | index<<32.
		component:  newComponent(cfg, p.Name, p.ID, p.Latency, 3, 3),
		choiceHash: bitutil.NewFolder(cfg.PktOff(), bitutil.Clog2(p.ChoiceRows)),
		exc:        newPCHistIndex(cfg.InstOff(), bitutil.Clog2(p.ExcEntries), p.HistLen),
		tagShift:   cfg.InstOff(),
		tagMask:    bitutil.Mask(p.TagBits),
	}
	y.choice = y.newMem(sram.Spec{
		Name:       p.Name + "_choice",
		Entries:    p.ChoiceRows,
		Width:      cfg.FetchWidth * 2,
		ReadPorts:  1,
		WritePorts: 1,
	})
	mk := func(n string) *sram.Mem {
		return y.newMem(sram.Spec{
			Name:       n,
			Entries:    p.ExcEntries,
			Width:      int(p.TagBits) + 1 + 2, // tag + valid + 2-bit ctr
			ReadPorts:  1,
			WritePorts: 1,
		})
	}
	y.tCache = mk(p.Name + "_t")
	y.ntCache = mk(p.Name + "_nt")
	return y
}

func (y *YAGS) choiceIdx(pc uint64) int {
	return int(y.choiceHash.Fold(pc))
}

// exception caches are indexed by pc^hist at *slot* granularity (exceptions
// are per branch), tagged with low PC bits.
func (y *YAGS) excIdx(slotPC, ghist uint64) int { return y.exc.of(slotPC, ghist) }

func (y *YAGS) excTag(slotPC uint64) uint64 {
	return slotPC >> y.tagShift & y.tagMask
}

func (y *YAGS) excHit(row, tag uint64) (bool, uint8) {
	if row&1 == 1 && row>>3&y.tagMask == tag {
		return true, uint8(row >> 1 & 3)
	}
	return false, 0
}

func (y *YAGS) excPack(tag uint64, ctr uint8) uint64 {
	return 1 | uint64(ctr&3)<<1 | tag<<3
}

// Predict implements pred.Subcomponent.  The exception caches read at the
// packet's *first* choice-biased slot per side (one port each, like the
// hardware); remaining slots use the bias.
func (y *YAGS) Predict(q *pred.Query) pred.Response {
	cIdx := y.choiceIdx(q.PC)
	cRow := y.choice.Read(cIdx)
	overlay, meta := y.response()
	// One exception lookup per cache per cycle, keyed on the packet base
	// slot; the lookup serves the slot whose bias matches the cache side.
	tIdx := y.excIdx(q.PC, q.GHist)
	ntIdx := tIdx
	tRow := y.tCache.Read(tIdx)
	ntRow := y.ntCache.Read(ntIdx)
	for i := 0; i < y.cfg.FetchWidth; i++ {
		bias := bitutil.CtrTaken(uint8(bitutil.Bits(cRow, uint(i)*2, 2)), 2)
		taken := bias
		slotPC := y.cfg.SlotPC(q.PC, i)
		tag := y.excTag(slotPC)
		if bias {
			if hit, ctr := y.excHit(ntRow, tag); hit {
				taken = bitutil.CtrTaken(ctr, 2)
			}
		} else {
			if hit, ctr := y.excHit(tRow, tag); hit {
				taken = bitutil.CtrTaken(ctr, 2)
			}
		}
		overlay[i] = pred.Pred{DirValid: true, Taken: taken, DirProvider: y.id}
	}
	meta[0] = cRow | uint64(cIdx)<<32
	meta[1] = tRow | uint64(tIdx)<<32
	meta[2] = ntRow | uint64(ntIdx)<<32
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: train the choice bias; on a bias
// miss, allocate/train the appropriate exception cache.
func (y *YAGS) Update(e *pred.Event) {
	cRow := e.Meta[0] & bitutil.Mask(32)
	cIdx := int(e.Meta[0] >> 32)
	tRow := e.Meta[1] & bitutil.Mask(32)
	tIdx := int(e.Meta[1] >> 32)
	ntRow := e.Meta[2] & bitutil.Mask(32)
	ntIdx := int(e.Meta[2] >> 32)
	dirty := false
	for i := range e.Slots {
		s := &e.Slots[i]
		if !s.Valid || !s.IsBranch || i >= y.cfg.FetchWidth {
			continue
		}
		sh := uint(i) * 2
		c := uint8(bitutil.Bits(cRow, sh, 2))
		bias := bitutil.CtrTaken(c, 2)
		tag := y.excTag(s.PC)
		if s.Taken != bias {
			// Exception: train/allocate the cache for this bias side.
			if bias {
				hit, ctr := y.excHit(ntRow, tag)
				if hit {
					ntRow = y.excPack(tag, bitutil.CtrUpdate(ctr, s.Taken, 2))
				} else {
					ntRow = y.excPack(tag, 1) // weakly not-taken exception
				}
				y.ntCache.Write(ntIdx, ntRow)
			} else {
				hit, ctr := y.excHit(tRow, tag)
				if hit {
					tRow = y.excPack(tag, bitutil.CtrUpdate(ctr, s.Taken, 2))
				} else {
					tRow = y.excPack(tag, 2) // weakly taken exception
				}
				y.tCache.Write(tIdx, tRow)
			}
		} else {
			// Agreement: strengthen any matching exception entry toward the
			// outcome too (it may be covering this branch).
			if bias {
				if hit, ctr := y.excHit(ntRow, tag); hit {
					ntRow = y.excPack(tag, bitutil.CtrUpdate(ctr, s.Taken, 2))
					y.ntCache.Write(ntIdx, ntRow)
				}
			} else if hit, ctr := y.excHit(tRow, tag); hit {
				tRow = y.excPack(tag, bitutil.CtrUpdate(ctr, s.Taken, 2))
				y.tCache.Write(tIdx, tRow)
			}
		}
		// The choice table trains except when the exception covered a
		// deviation correctly (the YAGS partial-update rule).
		nc := bitutil.CtrUpdate(c, s.Taken, 2)
		cRow = bitutil.SetBits(cRow, sh, 2, uint64(nc))
		dirty = true
	}
	if dirty {
		y.choice.Write(cIdx, cRow)
	}
}

// Mispredict trains immediately (§III-E fast path).
func (y *YAGS) Mispredict(e *pred.Event) { y.Update(e) }

var _ pred.Subcomponent = (*YAGS)(nil)
