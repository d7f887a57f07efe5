package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// Tourney is the tournament selector of §III-G.3: a 2-bit counter table,
// indexed by global history, that picks the winning sub-predictor between
// its two predict_in edges (input 0 wins when the counter is low, input 1
// when high — the Alpha 21264 arrangement with input 0 = global side,
// input 1 = local side).
//
// Per the paper, "the selector uses the metadata field to track the
// predictions made by the sub-predictors to determine an update for the
// counter table": at update time the two inputs' per-slot directions come
// back via metadata so the selector can train toward whichever side was
// right, without re-querying the sub-predictors.
type Tourney struct {
	pred.NopEvents
	component
	idxBits uint
	histLen uint
	mem     *sram.Mem

	scratch pred.Packet
	metaBuf [2]uint64
}

// TourneyParams configures a tournament selector.
type TourneyParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int  // selector counters (one per row; selection is per packet)
	HistLen uint // global history bits in the index
}

// NewTourney builds the selector.
func NewTourney(cfg pred.Config, p TourneyParams) *Tourney {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: Tourney entries must be a power of two")
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	idxBits := bitutil.Clog2(p.Entries)
	if p.HistLen == 0 {
		p.HistLen = idxBits
	}
	t := &Tourney{
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 1),
		idxBits:   idxBits,
		histLen:   p.HistLen,
		scratch:   make(pred.Packet, cfg.FetchWidth),
	}
	t.mem = t.newMem(sram.Spec{
		Name:       p.Name,
		Entries:    p.Entries,
		Width:      2,
		ReadPorts:  1,
		WritePorts: 1,
	})
	return t
}

// MetaWords implements pred.Subcomponent: word 0 packs the selector counter
// and index; word 1 packs per-slot input directions/valids.
func (t *Tourney) MetaWords() int { return 2 }

// NumInputs implements pred.Subcomponent: an arbitration scheme (§III-F).
func (t *Tourney) NumInputs() int { return 2 }

func (t *Tourney) index(pc, ghist uint64) int {
	pcPart := bitutil.MixPC(pc, t.cfg.PktOff(), t.idxBits)
	h := bitutil.XorFold(ghist&bitutil.Mask(t.histLen), t.idxBits)
	return int((pcPart ^ h) & bitutil.Mask(t.idxBits))
}

// Predict implements pred.Subcomponent: choose per slot between the two
// inputs' directions.  Slots where only one input has an opinion use that
// opinion; slots where neither does pass through.
func (t *Tourney) Predict(q *pred.Query) pred.Response {
	idx := t.index(q.PC, q.GHist)
	ctr := uint8(t.mem.Read(idx))
	useOne := bitutil.CtrTaken(ctr, 2)
	overlay := t.scratch
	for i := range overlay {
		overlay[i] = pred.Pred{}
	}

	var in0, in1 pred.Packet
	if len(q.In) > 0 {
		in0 = q.In[0]
	}
	if len(q.In) > 1 {
		in1 = q.In[1]
	}
	var slotMeta uint64
	for i := 0; i < t.cfg.FetchWidth; i++ {
		var p0, p1 pred.Pred
		if i < len(in0) {
			p0 = in0[i]
		}
		if i < len(in1) {
			p1 = in1[i]
		}
		// Pack: [v0 d0 v1 d1] per slot for the update.
		var m uint64
		if p0.DirValid {
			m |= 1
			if p0.Taken {
				m |= 2
			}
		}
		if p1.DirValid {
			m |= 4
			if p1.Taken {
				m |= 8
			}
		}
		slotMeta |= m << uint(4*i)

		chosen := p0
		if (useOne && p1.DirValid) || !p0.DirValid {
			chosen = p1
		}
		if chosen.DirValid {
			overlay[i] = pred.Pred{
				DirValid:    true,
				Taken:       chosen.Taken,
				DirProvider: t.id,
				IsCFI:       chosen.IsCFI,
				Kind:        chosen.Kind,
			}
		}
		// Targets (and CFI kind knowledge) pass through from input 0's
		// chain — the selector only arbitrates directions.
		if p0.TgtValid {
			overlay[i].TgtValid = true
			overlay[i].Target = p0.Target
			overlay[i].TgtProvider = p0.TgtProvider
		}
		if p0.IsCFI {
			overlay[i].IsCFI = true
			overlay[i].Kind = p0.Kind
		}
	}
	t.metaBuf[0] = uint64(ctr) | uint64(idx)<<8
	t.metaBuf[1] = slotMeta
	return pred.Response{Overlay: overlay, Meta: t.metaBuf[:]}
}

// Update implements pred.Subcomponent: train the selector toward whichever
// sub-predictor was correct, only when they disagreed (McFarling's rule).
func (t *Tourney) Update(e *pred.Event) {
	ctr := uint8(e.Meta[0] & 0xff)
	idx := int(e.Meta[0] >> 8)
	slotMeta := e.Meta[1]
	dirty := false
	for i, s := range e.Slots {
		if !s.Valid || !s.IsBranch || i >= t.cfg.FetchWidth {
			continue
		}
		m := slotMeta >> uint(4*i)
		v0, d0 := m&1 == 1, m&2 == 2
		v1, d1 := m&4 == 4, m&8 == 8
		if !v0 || !v1 || d0 == d1 {
			continue
		}
		// They disagreed: move toward the correct side.
		ctr = bitutil.CtrUpdate(ctr, d1 == s.Taken, 2)
		dirty = true
	}
	if dirty {
		t.mem.Write(idx, uint64(ctr))
	}
}

var _ pred.Subcomponent = (*Tourney)(nil)
