package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// GTAG is a single partially tagged table of global-history-indexed
// counters — the backing predictor of the original BOOM core, which the
// paper's "B2" topology reproduces (GTAG3 > BTB2 > BIM2).  A row covers one
// fetch packet: a partial tag plus FetchWidth 2-bit counters.  On a tag hit
// the row's counters provide directions for the whole packet; on a miss the
// component passes predict_in through.
//
// Like TAGE, GTAG learns global-history correlations and is "tolerant to
// delayed commit-time updates" (§III-E), so it uses only the update signal.
// The metadata stores the read row so update needs no second read port.
type GTAG struct {
	component
	tagBits uint

	idxFold *bitutil.FoldedHistory
	tagFold *bitutil.FoldedHistory
	mem     *sram.Mem // per row: tag | valid | counters

	// Index, tag and row fields, fixed at construction.
	idxHash bitutil.Folder // packet PC folded to idxBits
	tagHash bitutil.Folder // packet PC above the index folded to tagBits
	tagMask uint64         // Mask(tagBits)
}

// gtagCtrBits is the width of each slot's counter.
const gtagCtrBits = 2

// GTAGParams configures a GTAG instance.
type GTAGParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int  // rows (each covering one fetch packet)
	TagBits uint // partial tag width (default 8)
	HistLen uint // global history length folded into index/tag (default 16)
}

// NewGTAG builds the partially tagged table.  The component registers its
// folded-history registers with the supplied global history provider, which
// keeps them in sync through speculation and repair.
func NewGTAG(cfg pred.Config, g *history.Global, p GTAGParams) *GTAG {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: GTAG entries must be a power of two")
	}
	if p.TagBits == 0 {
		p.TagBits = 8
	}
	if p.HistLen == 0 {
		p.HistLen = 16
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	idxBits := bitutil.Clog2(p.Entries)
	t := &GTAG{
		// Two metadata words: row | hit<<63, then index | tag<<32
		// (regenerating them at commit time would need the predict-time
		// folds, which have moved on).
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 1, 2),
		tagBits:   p.TagBits,
		idxFold:   g.NewFold(p.HistLen, idxBits),
		tagFold:   g.NewFold(p.HistLen, p.TagBits),
		idxHash:   bitutil.NewFolder(cfg.PktOff(), idxBits),
		tagHash:   bitutil.NewFolder(cfg.PktOff()+idxBits, p.TagBits),
		tagMask:   bitutil.Mask(p.TagBits),
	}
	t.mem = t.newMem(sram.Spec{
		Name:       p.Name,
		Entries:    p.Entries,
		Width:      int(p.TagBits) + 1 + cfg.FetchWidth*gtagCtrBits,
		ReadPorts:  1,
		WritePorts: 1,
	})
	return t
}

// index and tag hash the fetch PC with the folded histories; every part
// fits the field, so neither needs a mask.
func (g *GTAG) index(pc uint64) uint64 {
	return g.idxHash.Fold(pc) ^ g.idxFold.Fold()
}

func (g *GTAG) tag(pc uint64) uint64 {
	return g.tagHash.Fold(pc) ^ g.tagFold.Fold()
}

func (g *GTAG) rowTag(row uint64) uint64 { return row & g.tagMask }
func (g *GTAG) rowValid(row uint64) bool { return row>>g.tagBits&1 == 1 }
func (g *GTAG) ctrShift(slot int) uint   { return g.tagBits + 1 + uint(slot)*gtagCtrBits }
func (g *GTAG) rowCtr(row uint64, slot int) uint8 {
	return uint8(bitutil.Bits(row, g.ctrShift(slot), gtagCtrBits))
}

// Predict implements pred.Subcomponent.  It writes every overlay slot
// (a miss passes predict_in through) and both metadata words.
func (g *GTAG) Predict(q *pred.Query) pred.Response {
	idx, tag := g.index(q.PC), g.tag(q.PC)
	row := g.mem.Read(int(idx))
	hit := g.rowValid(row) && g.rowTag(row) == tag
	overlay, meta := g.response()
	for i := range overlay {
		var p pred.Pred
		if hit {
			p = pred.Pred{
				DirValid:    true,
				Taken:       bitutil.CtrTaken(g.rowCtr(row, i), gtagCtrBits),
				DirProvider: g.id,
			}
		}
		overlay[i] = p
	}
	meta[0] = row
	if hit {
		meta[0] |= 1 << 63
	}
	meta[1] = idx | tag<<32
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Mispredict implements pred.Subcomponent: fast allocation/training at
// resolve time (§III-E), halving the training lag on mispredicted branches.
func (g *GTAG) Mispredict(e *pred.Event) { g.Update(e) }

// Update implements pred.Subcomponent.  On a predict-time hit the counters
// train toward the outcomes; on a miss where the final prediction was wrong,
// the row is allocated with weak counters biased to the outcomes.
func (g *GTAG) Update(e *pred.Event) {
	row := e.Meta[0] &^ (1 << 63)
	hit := e.Meta[0]>>63 == 1
	idx := int(e.Meta[1] & bitutil.Mask(32))
	tag := e.Meta[1] >> 32

	anyBranch, anyMispred := false, false
	for i := range e.Slots {
		s := &e.Slots[i]
		if s.Valid && s.IsBranch {
			anyBranch = true
			if s.Mispredicted {
				anyMispred = true
			}
		}
	}
	if !anyBranch {
		return
	}
	if hit {
		for i := range e.Slots {
			s := &e.Slots[i]
			if !s.Valid || !s.IsBranch || i >= g.cfg.FetchWidth {
				continue
			}
			c := bitutil.CtrUpdate(g.rowCtr(row, i), s.Taken, gtagCtrBits)
			row = bitutil.SetBits(row, g.ctrShift(i), gtagCtrBits, uint64(c))
		}
		g.mem.Write(idx, row)
		return
	}
	if !anyMispred {
		return // the rest of the pipeline got it right; do not thrash tags
	}
	// Allocate: fresh row with weak counters matching the outcomes.
	fresh := tag | 1<<g.tagBits
	weak := uint8((bitutil.Mask(gtagCtrBits) + 1) / 2) // weakly taken
	for i := range e.Slots {
		s := &e.Slots[i]
		if i >= g.cfg.FetchWidth {
			break
		}
		c := weak - 1 // weakly not-taken default
		if s.Valid && s.IsBranch && s.Taken {
			c = weak
		}
		fresh = bitutil.SetBits(fresh, g.ctrShift(i), gtagCtrBits, uint64(c))
	}
	g.mem.Write(idx, fresh)
}

// Budget implements pred.Subcomponent: the table plus its folded-history
// registers.
func (g *GTAG) Budget() sram.Budget {
	bg := g.component.Budget()
	bg.FlopBits = int(g.idxFold.Width() + g.tagFold.Width())
	return bg
}

var _ pred.Subcomponent = (*GTAG)(nil)
