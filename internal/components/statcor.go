package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// StatCorrector is a small statistical corrector in the spirit of
// TAGE-SC-L's SC stage — the component the paper's TAGE-L design explicitly
// omits ("only with no statistical corrector") and which we provide as the
// natural extension experiment.  It watches the direction arriving on
// predict_in (normally TAGE's output) and learns, per (PC, history) context,
// whether that prediction is statistically wrong; when its signed counter is
// confident and disagrees, it inverts the incoming direction.
type StatCorrector struct {
	component
	thresh int8
	mem    *sram.Mem // signed 6-bit counters, offset-binary storage
	idx    pcHistIndex
}

// StatCorrectorParams configures a statistical corrector.
type StatCorrectorParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int
	HistLen uint
}

// NewStatCorrector builds the corrector table.
func NewStatCorrector(cfg pred.Config, p StatCorrectorParams) *StatCorrector {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: StatCorrector entries must be a power of two")
	}
	if p.HistLen == 0 {
		p.HistLen = 12
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	c := &StatCorrector{
		// Two metadata words: the row, then index | incoming directions<<32.
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 1, 2),
		thresh:    10,
		idx:       newPCHistIndex(cfg.PktOff(), bitutil.Clog2(p.Entries), p.HistLen),
	}
	c.mem = c.newMem(sram.Spec{
		Name:       p.Name,
		Entries:    p.Entries,
		Width:      6 * cfg.FetchWidth,
		ReadPorts:  1,
		WritePorts: 1,
	})
	return c
}

func (c *StatCorrector) index(pc, ghist uint64) int { return c.idx.of(pc, ghist) }

// Counters are 6-bit two's complement so a freshly zeroed row decodes to
// the neutral state (no inversion), not to strong disagreement.
func scGet(row uint64, slot int) int8 {
	raw := uint8(bitutil.Bits(row, uint(slot)*6, 6))
	return int8(raw<<2) >> 2 // sign-extend 6 bits
}

// Predict implements pred.Subcomponent: invert incoming directions the
// corrector strongly distrusts.  Every overlay slot and both metadata words
// are written.
func (c *StatCorrector) Predict(q *pred.Query) pred.Response {
	idx := c.index(q.PC, q.GHist)
	row := c.mem.Read(idx)
	overlay, meta := c.response()
	var in pred.Packet
	if len(q.In) > 0 {
		in = q.In[0]
	}
	var inDirs uint64
	for i := 0; i < c.cfg.FetchWidth; i++ {
		var p pred.Pred
		if i < len(in) {
			p = in[i]
		}
		var o pred.Pred // agreement, or no incoming direction: pass through
		if p.DirValid {
			inDirs |= 1 << uint(2*i)
			if p.Taken {
				inDirs |= 2 << uint(2*i)
			}
			// The counter tracks agreement with the incoming prediction:
			// deeply negative means "incoming direction is usually wrong
			// here".
			if scGet(row, i) <= -c.thresh {
				o = pred.Pred{
					DirValid:    true,
					Taken:       !p.Taken,
					DirProvider: c.id,
				}
			}
		}
		overlay[i] = o
	}
	meta[0] = row
	meta[1] = uint64(idx) | inDirs<<32
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: per-slot agreement training.
func (c *StatCorrector) Update(e *pred.Event) {
	row := e.Meta[0]
	idx := int(e.Meta[1] & bitutil.Mask(32))
	inDirs := e.Meta[1] >> 32
	dirty := false
	for i := range e.Slots {
		s := &e.Slots[i]
		if !s.Valid || !s.IsBranch || i >= c.cfg.FetchWidth {
			continue
		}
		if inDirs>>(2*i)&1 != 1 {
			continue // no incoming direction at predict time
		}
		inTaken := inDirs>>(2*i)&2 == 2
		ctr := bitutil.CtrUpdateS(scGet(row, i), inTaken == s.Taken, 31)
		row = bitutil.SetBits(row, uint(i)*6, 6, uint64(uint8(ctr)))
		dirty = true
	}
	if dirty {
		c.mem.Write(idx, row)
	}
}

var _ pred.Subcomponent = (*StatCorrector)(nil)
