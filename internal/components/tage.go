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
	pred.NopEvents
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

	scratch pred.Packet
	metaBuf []uint64
}

type tageTable struct {
	idxBits  uint
	tagBits  uint
	histLen  uint
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
		component: newComponent(cfg, p.Name, p.ID, p.Latency, len(p.TableEntries)),
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
			idxBits:  idxBits,
			tagBits:  tb,
			histLen:  hl,
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
	t.scratch = make(pred.Packet, cfg.FetchWidth)
	t.metaBuf = make([]uint64, t.MetaWords())
	return t
}

// MetaWords implements pred.Subcomponent: [provider|alt|flags, provider row,
// alt row, then one word per table packing index|tag].
func (t *TAGE) MetaWords() int { return 3 + len(t.tables) }

// NumTables returns the number of tagged tables (for reports).
func (t *TAGE) NumTables() int { return len(t.tables) }

func (tb *tageTable) index(cfg pred.Config, pc uint64) uint64 {
	pcPart := bitutil.MixPC(pc, cfg.PktOff(), tb.idxBits)
	return (pcPart ^ tb.idxFold.Fold()) & bitutil.Mask(tb.idxBits)
}

func (tb *tageTable) tag(cfg pred.Config, pc uint64) uint64 {
	pcPart := bitutil.MixPC(pc>>2, cfg.PktOff(), tb.tagBits)
	return (pcPart ^ tb.tagFold.Fold() ^ (tb.tag2Fold.Fold() << 1)) & bitutil.Mask(tb.tagBits)
}

// Row layout: [tag][u][ctr0..ctrW-1], counters offset-binary (0..7, taken
// when >= 4).
func (tb *tageTable) rowTag(row uint64) uint64 { return row & bitutil.Mask(tb.tagBits) }
func (tb *tageTable) rowU(row uint64) uint8 {
	return uint8(bitutil.Bits(row, tb.tagBits, tageUBits))
}
func (tb *tageTable) setRowU(row uint64, u uint8) uint64 {
	row &^= bitutil.Mask(tageUBits) << tb.tagBits
	return row | uint64(u&3)<<tb.tagBits
}
func (tb *tageTable) ctrShift(slot int) uint {
	return tb.tagBits + tageUBits + uint(slot)*tageCtrBits
}
func (tb *tageTable) rowCtr(row uint64, slot int) uint8 {
	return uint8(bitutil.Bits(row, tb.ctrShift(slot), tageCtrBits))
}
func (tb *tageTable) setRowCtr(row uint64, slot int, c uint8) uint64 {
	sh := tb.ctrShift(slot)
	row &^= bitutil.Mask(tageCtrBits) << sh
	return row | uint64(c&7)<<sh
}

// tageWeak reports a weak (just-allocated strength) counter.
func tageWeak(c uint8) bool { return c == 3 || c == 4 }

// A valid entry is indicated by a nonzero tag; tag 0 is reserved empty.
// The tag hash is remapped so real tag 0 becomes 1.
func (tb *tageTable) liveTag(cfg pred.Config, pc uint64) uint64 {
	tg := tb.tag(cfg, pc)
	if tg == 0 {
		tg = 1
	}
	return tg
}

// Predict implements pred.Subcomponent.
func (t *TAGE) Predict(q *pred.Query) pred.Response {
	meta := t.metaBuf
	for i := range meta {
		meta[i] = 0
	}
	provider, alt := -1, -1
	var provRow, altRow uint64
	for i, tb := range t.tables {
		idx := tb.index(t.cfg, q.PC)
		tg := tb.liveTag(t.cfg, q.PC)
		row := tb.mem.Read(int(idx))
		meta[3+i] = idx | tg<<32
		if tb.rowTag(row) == tg {
			alt, altRow = provider, provRow
			provider, provRow = i, row
		}
	}
	overlay := t.scratch
	for i := range overlay {
		overlay[i] = pred.Pred{}
	}
	flags := uint64(0)
	if provider >= 0 {
		tb := t.tables[provider]
		// "Use alternate on newly allocated": if the provider entry is weak
		// and not yet proven useful, prefer the alternate prediction (here:
		// pass through, letting the alt table's overlay or predict_in win).
		newlyAlloc := tb.rowU(provRow) == 0
		for i := 0; i < t.cfg.FetchWidth; i++ {
			c := tb.rowCtr(provRow, i)
			if newlyAlloc && tageWeak(c) && t.useAltCtr >= 0 {
				if alt >= 0 {
					atb := t.tables[alt]
					overlay[i] = pred.Pred{
						DirValid:    true,
						Taken:       bitutil.CtrTaken(atb.rowCtr(altRow, i), tageCtrBits),
						DirProvider: t.id,
					}
				}
				// else: pass through to predict_in (the base predictor).
				continue
			}
			overlay[i] = pred.Pred{
				DirValid:    true,
				Taken:       bitutil.CtrTaken(c, tageCtrBits),
				DirProvider: t.id,
			}
		}
		flags = 1
	}
	meta[0] = flags | uint64(uint8(provider+1))<<8 | uint64(uint8(alt+1))<<16
	meta[1] = provRow
	meta[2] = altRow
	// Record which slots we actually asserted (bit i set = asserted).
	var asserted uint64
	for i := range overlay {
		if overlay[i].DirValid {
			asserted |= 1 << uint(24+i)
		}
	}
	meta[0] |= asserted
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: Seznec's commit-time TAGE update
// driven entirely by metadata (no extra read ports).
func (t *TAGE) Update(e *pred.Event) {
	provider := int(uint8(e.Meta[0]>>8)) - 1
	alt := int(uint8(e.Meta[0]>>16)) - 1
	provRow, altRow := e.Meta[1], e.Meta[2]
	t.numUpdates++

	for slot, s := range e.Slots {
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

func (t *TAGE) updateSlot(e *pred.Event, slot int, s pred.SlotInfo, provider, alt int, provRow *uint64, altRow uint64) {
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
		*provRow = tb.setRowCtr(*provRow, slot, bitutil.CtrUpdate(c, outcome, tageCtrBits))
		// Usefulness: provider differs from alternate and was right/wrong.
		if provPred != altPred {
			u := tb.rowU(*provRow)
			if provPred == outcome {
				u = bitutil.SatInc(u, tageUBits)
			} else {
				u = bitutil.SatDec(u, tageUBits)
			}
			*provRow = tb.setRowU(*provRow, u)
			// Track whether "use alt on newly allocated" would have helped.
			if tb.rowU(*provRow) == 0 && tageWeak(c) {
				if altPred == outcome {
					t.useAltCtr = bitutil.SatIncS(t.useAltCtr, 7)
				} else {
					t.useAltCtr = bitutil.SatDecS(t.useAltCtr, 7)
				}
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
			fresh = tb.setRowCtr(fresh, sl, c)
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
				tb.mem.Poke(i, tb.setRowU(row, u>>1))
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
