package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// ITTAGE is an indirect-target predictor in the style of Seznec's ITTAGE:
// tagged tables indexed by geometrically longer global histories whose
// entries store *targets* rather than direction counters.  It demonstrates
// the interface's support for target-only partial predictions (§III-F): on
// a hit it overrides only the target field of the slot the entry was
// trained for, leaving directions to the rest of the pipeline — the same
// decoupling Fig. 3 shows for the BTB.
//
// A plain BTB remembers one target per (PC, way); polymorphic call sites
// and dense switch statements change targets with context, which is
// exactly what history-tagged target tables capture.
type ITTAGE struct {
	pred.NopEvents
	component
	tables []*itTable
}

type itTable struct {
	idxBits uint
	tagBits uint
	histLen uint
	idxFold *bitutil.FoldedHistory
	tagFold *bitutil.FoldedHistory
	// Row: tag | valid | conf(2) | slot(2..) | target(btbTargetBits, packet-
	// relative like the BTB).
	mem *sram.Mem
}

// ITTAGEParams configures an ITTAGE instance.
type ITTAGEParams struct {
	Name         string
	ID           pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency      int
	TableEntries []int
	HistLens     []uint
	TagBits      []uint
}

// DefaultITTAGEParams is a compact 3-table configuration.
func DefaultITTAGEParams(name string) ITTAGEParams {
	return ITTAGEParams{
		Name:         name,
		Latency:      3,
		TableEntries: []int{256, 256, 256},
		HistLens:     []uint{4, 12, 32},
		TagBits:      []uint{9, 10, 11},
	}
}

// NewITTAGE builds the predictor, registering folds with the global history
// provider.
func NewITTAGE(cfg pred.Config, g *history.Global, p ITTAGEParams) *ITTAGE {
	if len(p.TableEntries) == 0 || len(p.TableEntries) != len(p.HistLens) ||
		len(p.TableEntries) != len(p.TagBits) {
		panic("components: ITTAGE parameter slices must match and be non-empty")
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	t := &ITTAGE{component: newComponent(cfg, p.Name, p.ID, p.Latency, len(p.TableEntries))}
	slotBits := bitutil.Clog2(cfg.FetchWidth)
	if slotBits == 0 {
		slotBits = 1
	}
	for i := range p.TableEntries {
		if !bitutil.IsPow2(p.TableEntries[i]) {
			panic("components: ITTAGE table entries must be powers of two")
		}
		idxBits := bitutil.Clog2(p.TableEntries[i])
		t.tables = append(t.tables, &itTable{
			idxBits: idxBits,
			tagBits: p.TagBits[i],
			histLen: p.HistLens[i],
			idxFold: g.NewFold(p.HistLens[i], idxBits),
			tagFold: g.NewFold(p.HistLens[i], p.TagBits[i]),
			mem: t.newMem(sram.Spec{
				Name:       p.Name + "_t",
				Entries:    p.TableEntries[i],
				Width:      int(p.TagBits[i]) + 1 + 2 + int(slotBits) + btbTargetBits,
				ReadPorts:  1,
				WritePorts: 1,
			}),
		})
	}
	return t
}

// MetaWords implements pred.Subcomponent: provider index plus per-table
// index|tag words.
func (t *ITTAGE) MetaWords() int { return 1 + len(t.tables) }

func (tb *itTable) index(cfg pred.Config, pc uint64) uint64 {
	return (bitutil.MixPC(pc, cfg.PktOff(), tb.idxBits) ^ tb.idxFold.Fold()) & bitutil.Mask(tb.idxBits)
}

func (tb *itTable) tag(cfg pred.Config, pc uint64) uint64 {
	tg := (bitutil.MixPC(pc>>3, cfg.PktOff(), tb.tagBits) ^ tb.tagFold.Fold()) & bitutil.Mask(tb.tagBits)
	if tg == 0 {
		tg = 1
	}
	return tg
}

func (tb *itTable) unpack(cfg pred.Config, base, row uint64) (tag uint64, conf uint8, slot int, target uint64) {
	tag = row & bitutil.Mask(tb.tagBits)
	rest := row >> tb.tagBits
	valid := rest & 1
	conf = uint8(rest >> 1 & 3)
	slotBits := bitutil.Clog2(cfg.FetchWidth)
	if slotBits == 0 {
		slotBits = 1
	}
	slot = int(rest >> 3 & bitutil.Mask(slotBits))
	off := int64(rest>>(3+slotBits)) << (64 - btbTargetBits) >> (64 - btbTargetBits)
	target = uint64(int64(cfg.PacketBase(base)) + off<<cfg.InstOff())
	if valid == 0 {
		tag = 0
	}
	return tag, conf, slot, target
}

func (tb *itTable) pack(cfg pred.Config, base uint64, tag uint64, conf uint8, slot int, target uint64) uint64 {
	slotBits := bitutil.Clog2(cfg.FetchWidth)
	if slotBits == 0 {
		slotBits = 1
	}
	off := (int64(target) - int64(cfg.PacketBase(base))) >> cfg.InstOff()
	row := tag
	row |= 1 << tb.tagBits // valid
	row |= uint64(conf&3) << (tb.tagBits + 1)
	row |= (uint64(slot) & bitutil.Mask(slotBits)) << (tb.tagBits + 3)
	row |= (uint64(off) & bitutil.Mask(btbTargetBits)) << (tb.tagBits + 3 + slotBits)
	return row
}

// Predict implements pred.Subcomponent: the longest-history hit provides a
// target-only override for its trained slot.
func (t *ITTAGE) Predict(q *pred.Query) pred.Response {
	meta := make([]uint64, t.MetaWords())
	overlay := make(pred.Packet, t.cfg.FetchWidth)
	provider := -1
	var pSlot int
	var pTarget uint64
	var pConf uint8
	for i, tb := range t.tables {
		idx := tb.index(t.cfg, q.PC)
		tg := tb.tag(t.cfg, q.PC)
		row := tb.mem.Read(int(idx))
		meta[1+i] = idx | tg<<32
		rTag, conf, slot, target := tb.unpack(t.cfg, q.PC, row)
		if rTag == tg {
			provider, pSlot, pTarget, pConf = i, slot, target, conf
		}
	}
	if provider >= 0 && pConf >= 1 && pSlot < t.cfg.FetchWidth {
		overlay[pSlot] = pred.Pred{
			TgtValid:    true,
			Target:      pTarget,
			TgtProvider: t.id,
			IsCFI:       true,
			Kind:        pred.KindIndirect,
		}
	}
	meta[0] = uint64(uint8(provider + 1))
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: train on committed indirect control
// flow (returns are the RAS's job and are excluded).
func (t *ITTAGE) Update(e *pred.Event) {
	slot, s := -1, pred.SlotInfo{}
	for i := range e.Slots {
		if e.Slots[i].Valid && e.Slots[i].IsIndir && e.Slots[i].Taken {
			slot, s = i, e.Slots[i]
			break
		}
	}
	if slot < 0 {
		return
	}
	provider := int(uint8(e.Meta[0])) - 1
	if provider >= 0 {
		tb := t.tables[provider]
		idx := int(e.Meta[1+provider] & bitutil.Mask(32))
		tg := e.Meta[1+provider] >> 32
		row := tb.mem.Peek(idx)
		rTag, conf, pSlot, target := tb.unpack(t.cfg, e.PC, row)
		if rTag == tg {
			if pSlot == slot && target == s.Target {
				if conf < 3 {
					conf++
				}
				tb.mem.Write(idx, tb.pack(t.cfg, e.PC, tg, conf, slot, s.Target))
				return
			}
			if conf > 0 {
				tb.mem.Write(idx, tb.pack(t.cfg, e.PC, tg, conf-1, pSlot, target))
			} else {
				tb.mem.Write(idx, tb.pack(t.cfg, e.PC, tg, 1, slot, s.Target))
			}
			// Also try to allocate a longer-history entry below.
		} else {
			provider = -1
		}
	}
	if s.Mispredicted {
		// Allocate in the next-longer table (or the longest).
		start := provider + 1
		if start >= len(t.tables) {
			return
		}
		tb := t.tables[start]
		idx := int(e.Meta[1+start] & bitutil.Mask(32))
		tg := e.Meta[1+start] >> 32
		row := tb.mem.Peek(idx)
		_, conf, _, _ := tb.unpack(t.cfg, e.PC, row)
		if conf == 0 {
			tb.mem.Write(idx, tb.pack(t.cfg, e.PC, tg, 1, slot, s.Target))
		} else {
			tb.mem.Write(idx, row&^(uint64(3)<<(tb.tagBits+1))|
				uint64(conf-1)<<(tb.tagBits+1)) // decay
		}
	}
}

// Mispredict gives a fast training path on indirect target misses.
func (t *ITTAGE) Mispredict(e *pred.Event) { t.Update(e) }

// Budget implements pred.Subcomponent: the tables plus the folded-history
// registers.
func (t *ITTAGE) Budget() sram.Budget {
	bg := t.component.Budget()
	for _, tb := range t.tables {
		bg.FlopBits += int(tb.idxFold.Width() + tb.tagFold.Width())
	}
	return bg
}

var _ pred.Subcomponent = (*ITTAGE)(nil)

func init() {
	Register("ITGT", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		p := DefaultITTAGEParams(name)
		p.ID = env.ID
		if latency > 0 {
			p.Latency = latency
		}
		if err := needHistory(env, name, p.HistLens...); err != nil {
			return nil, err
		}
		if size > 0 {
			for i := range p.TableEntries {
				p.TableEntries[i] = floorPow2(size/len(p.TableEntries), 64)
			}
		}
		return NewITTAGE(env.Cfg, env.Global, p), nil
	})
}
