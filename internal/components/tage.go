package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// TAGE implements the TAgged GEometric-history-length predictor of §III-G.4
// following Seznec's algorithm ("A new case for the TAGE branch predictor"):
// a set of tagged tables indexed by hashes of geometrically increasing
// global-history lengths.  The longest-history hitting table provides the
// prediction; the next hit (or predict_in, which in the paper's TAGE-L
// topology is the BIM/BTB chain underneath) is the alternate.
//
// Superscalar organization: a row holds one partial tag, one usefulness
// counter, and FetchWidth 3-bit signed counters, so every branch in the
// fetch packet gets a direction (§III-C).
//
// Per §III-E TAGE is a commit-time-update predictor: speculation cannot
// corrupt it, so it implements only the update signal.  The metadata field
// carries the provider/alternate table numbers, the predict-time indices and
// tags of every table, and the provider row — the exact bookkeeping the
// paper says the metadata field exists for.
type TAGE struct {
	component

	tables []*tageTable
	// Allocation randomness: a deterministic LFSR, as hardware would use.
	lfsr uint32
	// Usefulness decay: counts allocation failures; on overflow all u bits
	// decay (the low-cost variant of Seznec's periodic reset).
	uDecayCtr  int
	uDecayMax  int
	useAltCtr  int8 // "use alt on newly allocated" counter, [-8, 7]
	numUpdates uint64
}

type tageTable struct {
	tagBits  uint
	idxHash  bitutil.Folder // packet PC folded to idxBits
	tagHash  bitutil.Folder // PC>>2 folded to tagBits
	tagMask  uint64         // Mask(tagBits)
	ctrLo    uint           // shift of slot 0's counter: tagBits + tageUBits
	idxFold  *bitutil.FoldedHistory
	tagFold  *bitutil.FoldedHistory
	tag2Fold *bitutil.FoldedHistory // second fold defeats tag aliasing
	mem      *sram.Mem
}

const (
	tageCtrBits = 3 // per-slot signed counter, stored offset-binary
	tageUBits   = 2
)

// TAGEParams configures a TAGE instance.
type TAGEParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	// TableEntries and HistLens configure the tagged tables (parallel
	// slices).  TagBits may be scalar-per-table too.
	TableEntries []int
	HistLens     []uint
	TagBits      []uint
}

// DefaultTAGEParams returns the 7-table configuration used by the paper's
// TAGE-L design (64-bit maximum global history, Table I).
func DefaultTAGEParams(name string) TAGEParams {
	return TAGEParams{
		Name:         name,
		Latency:      3,
		TableEntries: []int{1024, 1024, 1024, 1024, 512, 512, 512},
		HistLens:     []uint{4, 6, 10, 16, 25, 40, 64},
		TagBits:      []uint{7, 7, 8, 8, 9, 10, 12},
	}
}

// NewTAGE builds a TAGE predictor whose folded histories are registered with
// the supplied global history provider.
func NewTAGE(cfg pred.Config, g *history.Global, p TAGEParams) *TAGE {
	if len(p.TableEntries) == 0 || len(p.TableEntries) != len(p.HistLens) || len(p.TableEntries) != len(p.TagBits) {
		panic("components: TAGE table parameter slices must be equal length and non-empty")
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	t := &TAGE{
		// Metadata: [provider|alt|flags, provider row, alt row, then one
		// word per table packing index|tag].
		component: newComponent(cfg, p.Name, p.ID, p.Latency, len(p.TableEntries), 3+len(p.TableEntries)),
		lfsr:      0xACE1,
		uDecayMax: 1 << 18,
	}
	for i := range p.TableEntries {
		entries, hl, tb := p.TableEntries[i], p.HistLens[i], p.TagBits[i]
		if !bitutil.IsPow2(entries) {
			panic("components: TAGE table entries must be powers of two")
		}
		idxBits := bitutil.Clog2(entries)
		rowBits := int(tb) + tageUBits + cfg.FetchWidth*tageCtrBits
		tbl := &tageTable{
			tagBits:  tb,
			idxHash:  bitutil.NewFolder(cfg.PktOff(), idxBits),
			tagHash:  bitutil.NewFolder(cfg.PktOff(), tb),
			tagMask:  bitutil.Mask(tb),
			ctrLo:    tb + tageUBits,
			idxFold:  g.NewFold(hl, idxBits),
			tagFold:  g.NewFold(hl, tb),
			tag2Fold: g.NewFold(hl, tb-1),
			mem: t.newMem(sram.Spec{
				Name:       p.Name + "_t",
				Entries:    entries,
				Width:      rowBits,
				ReadPorts:  1,
				WritePorts: 1,
			}),
		}
		t.tables = append(t.tables, tbl)
	}
	return t
}

// index and tag hash the fetch PC with the table's folded histories.
// Every term fits the field (the tag's second fold is one bit narrower
// than the tag, shifted up one), so neither needs a mask.
func (tb *tageTable) index(pc uint64) uint64 {
	return tb.idxHash.Fold(pc) ^ tb.idxFold.Fold()
}

func (tb *tageTable) tag(pc uint64) uint64 {
	return tb.tagHash.Fold(pc>>2) ^ tb.tagFold.Fold() ^ tb.tag2Fold.Fold()<<1
}

// Row layout: [tag][u][ctr0..ctrW-1], counters offset-binary (0..7, taken
// when >= 4).
func (tb *tageTable) rowTag(row uint64) uint64 { return row & tb.tagMask }
func (tb *tageTable) rowU(row uint64) uint8 {
	return uint8(row >> tb.tagBits & (1<<tageUBits - 1))
}
func (tb *tageTable) ctrShift(slot int) uint {
	return tb.ctrLo + uint(slot)*tageCtrBits
}
func (tb *tageTable) rowCtr(row uint64, slot int) uint8 {
	return uint8(row >> tb.ctrShift(slot) & (1<<tageCtrBits - 1))
}

// A valid entry is indicated by a nonzero tag; tag 0 is reserved empty.
// The tag hash is remapped so real tag 0 becomes 1.
func (tb *tageTable) liveTag(pc uint64) uint64 {
	tg := tb.tag(pc)
	if tg == 0 {
		tg = 1
	}
	return tg
}

// Predict implements pred.Subcomponent.  It writes every overlay slot
// (the zero Pred passes through) and every metadata word.
func (t *TAGE) Predict(q *pred.Query) pred.Response {
	overlay, meta := t.response()
	provider, alt := -1, -1
	var provRow, altRow uint64
	for i, tb := range t.tables {
		idx := tb.index(q.PC)
		tg := tb.liveTag(q.PC)
		row := tb.mem.Read(int(idx))
		meta[3+i] = idx | tg<<32
		if tb.rowTag(row) == tg {
			alt, altRow = provider, provRow
			provider, provRow = i, row
		}
	}
	// flags: 1 for a provider hit, and bit 24+i for each asserted slot i.
	var flags uint64
	var tb *tageTable
	newlyAlloc := false
	if provider >= 0 {
		flags = 1
		tb = t.tables[provider]
		// "Use alternate on newly allocated": if the provider entry is weak
		// and not yet proven useful, prefer the alternate prediction (here:
		// pass through, letting the alt table's overlay or predict_in win).
		newlyAlloc = tb.rowU(provRow) == 0
	}
	for i := range overlay {
		var p pred.Pred // no opinion: pass through to predict_in
		if tb != nil {
			c := tb.rowCtr(provRow, i)
			if !newlyAlloc || !bitutil.CtrWeak(c, tageCtrBits) || t.useAltCtr < 0 {
				p = pred.Pred{DirValid: true, Taken: bitutil.CtrTaken(c, tageCtrBits), DirProvider: t.id}
			} else if alt >= 0 {
				ac := t.tables[alt].rowCtr(altRow, i)
				p = pred.Pred{DirValid: true, Taken: bitutil.CtrTaken(ac, tageCtrBits), DirProvider: t.id}
			}
		}
		overlay[i] = p
		if p.DirValid {
			flags |= 1 << uint(24+i)
		}
	}
	meta[0] = flags | uint64(uint8(provider+1))<<8 | uint64(uint8(alt+1))<<16
	meta[1] = provRow
	meta[2] = altRow
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: Seznec's commit-time TAGE update
// driven entirely by metadata (no extra read ports).
func (t *TAGE) Update(e *pred.Event) {
	provider := int(uint8(e.Meta[0]>>8)) - 1
	alt := int(uint8(e.Meta[0]>>16)) - 1
	provRow, altRow := e.Meta[1], e.Meta[2]
	t.numUpdates++

	for slot := range e.Slots {
		s := &e.Slots[slot]
		if !s.Valid || !s.IsBranch || slot >= t.cfg.FetchWidth {
			continue
		}
		t.updateSlot(e, slot, s, provider, alt, &provRow, altRow)
	}
	if provider >= 0 {
		tb := t.tables[provider]
		idx := int(e.Meta[3+provider] & bitutil.Mask(32))
		tb.mem.Write(idx, provRow)
	}
}

func (t *TAGE) updateSlot(e *pred.Event, slot int, s *pred.SlotInfo, provider, alt int, provRow *uint64, altRow uint64) {
	outcome := s.Taken
	if provider >= 0 {
		tb := t.tables[provider]
		c := tb.rowCtr(*provRow, slot)
		provPred := bitutil.CtrTaken(c, tageCtrBits)
		altPred := provPred
		if alt >= 0 {
			altPred = bitutil.CtrTaken(t.tables[alt].rowCtr(altRow, slot), tageCtrBits)
		} else {
			// The alternate was predict_in; treat the final pipeline
			// prediction as its stand-in for u-counter training.
			altPred = s.PredTaken
		}
		// Train the provider counter.
		*provRow = bitutil.SetBits(*provRow, tb.ctrShift(slot), tageCtrBits, uint64(bitutil.CtrUpdate(c, outcome, tageCtrBits)))
		// Usefulness: provider differs from alternate and was right/wrong.
		if provPred != altPred {
			u := tb.rowU(*provRow)
			if provPred == outcome {
				u = bitutil.SatInc(u, tageUBits)
			} else {
				u = bitutil.SatDec(u, tageUBits)
			}
			*provRow = bitutil.SetBits(*provRow, tb.tagBits, tageUBits, uint64(u))
			// Track whether "use alt on newly allocated" would have helped.
			if tb.rowU(*provRow) == 0 && bitutil.CtrWeak(c, tageCtrBits) {
				t.useAltCtr = bitutil.CtrUpdateS(t.useAltCtr, altPred == outcome, 7)
			}
		}
		// Allocate on a provider miss only.
		if provPred == outcome {
			return
		}
	} else if !s.Mispredicted {
		// No table hit and the pipeline (base predictor) was right.
		return
	}
	t.allocate(e, slot, outcome, provider)
}

// allocate tries to claim an entry in a table with longer history than the
// provider, preferring u==0 entries and randomizing the start table.
func (t *TAGE) allocate(e *pred.Event, slot int, outcome bool, provider int) {
	start := provider + 1
	if start >= len(t.tables) {
		t.decayTick()
		return
	}
	// Randomize among the next few tables (Seznec's anti-ping-pong trick).
	t.lfsr = t.lfsr>>1 ^ (uint32(-(int32(t.lfsr & 1))) & 0xB400)
	if span := len(t.tables) - start; span > 1 && t.lfsr&3 == 0 {
		start += int(t.lfsr>>2) % 2
		if start >= len(t.tables) {
			start = len(t.tables) - 1
		}
	}
	for i := start; i < len(t.tables); i++ {
		tb := t.tables[i]
		idx := int(e.Meta[3+i] & bitutil.Mask(32))
		tg := e.Meta[3+i] >> 32
		row := tb.mem.Peek(idx)
		if tb.rowU(row) != 0 {
			continue
		}
		fresh := tg // tag, u=0
		for sl := 0; sl < t.cfg.FetchWidth; sl++ {
			c := uint8(3) // weak not-taken
			if sl == slot && outcome {
				c = 4 // weak taken
			} else if sl == slot {
				c = 3
			}
			fresh = bitutil.SetBits(fresh, tb.ctrShift(sl), tageCtrBits, uint64(c))
		}
		tb.mem.Write(idx, fresh)
		return
	}
	// All candidates useful: decay pressure.
	t.decayTick()
}

// decayTick ages usefulness counters when allocation keeps failing.
func (t *TAGE) decayTick() {
	t.uDecayCtr++
	if t.uDecayCtr < t.uDecayMax {
		return
	}
	t.uDecayCtr = 0
	for _, tb := range t.tables {
		for i := 0; i < tb.mem.Spec().Entries; i++ {
			row := tb.mem.Peek(i)
			u := tb.rowU(row)
			if u > 0 {
				tb.mem.Poke(i, bitutil.SetBits(row, tb.tagBits, tageUBits, uint64(u>>1)))
			}
		}
	}
}

// Reset implements pred.Subcomponent.
func (t *TAGE) Reset() {
	t.component.Reset()
	t.lfsr = 0xACE1
	t.uDecayCtr = 0
	t.useAltCtr = 0
	t.numUpdates = 0
}

// Budget implements pred.Subcomponent: the tables plus the folded-history
// registers and the allocation state.
func (t *TAGE) Budget() sram.Budget {
	bg := t.component.Budget()
	for _, tb := range t.tables {
		bg.FlopBits += int(tb.idxFold.Width() + tb.tagFold.Width() + tb.tag2Fold.Width())
	}
	bg.FlopBits += 32 + 8 // lfsr + useAlt
	return bg
}

var _ pred.Subcomponent = (*TAGE)(nil)
