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
	pred.NopEvents
	component
	idxBits uint
	histLen uint
	thresh  int8
	mem     *sram.Mem // signed 6-bit counters, offset-binary storage

	scratch pred.Packet
	metaBuf [2]uint64
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
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 1),
		idxBits:   bitutil.Clog2(p.Entries),
		histLen:   p.HistLen,
		thresh:    10,
		scratch:   make(pred.Packet, cfg.FetchWidth),
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

// MetaWords implements pred.Subcomponent: row + index + incoming directions.
func (c *StatCorrector) MetaWords() int { return 2 }

func (c *StatCorrector) index(pc, ghist uint64) int {
	pcPart := bitutil.MixPC(pc, c.cfg.PktOff(), c.idxBits)
	h := bitutil.XorFold(ghist&bitutil.Mask(c.histLen), c.idxBits)
	return int((pcPart ^ h) & bitutil.Mask(c.idxBits))
}

// Counters are 6-bit two's complement so a freshly zeroed row decodes to
// the neutral state (no inversion), not to strong disagreement.
func scGet(row uint64, slot int) int8 {
	raw := uint8(bitutil.Bits(row, uint(slot)*6, 6))
	return int8(raw<<2) >> 2 // sign-extend 6 bits
}

func scSet(row uint64, slot int, v int8) uint64 {
	sh := uint(slot) * 6
	row &^= bitutil.Mask(6) << sh
	return row | uint64(uint8(v)&0x3f)<<sh
}

// Predict implements pred.Subcomponent: invert incoming directions the
// corrector strongly distrusts.
func (c *StatCorrector) Predict(q *pred.Query) pred.Response {
	idx := c.index(q.PC, q.GHist)
	row := c.mem.Read(idx)
	overlay := c.scratch
	for i := range overlay {
		overlay[i] = pred.Pred{}
	}
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
		if !p.DirValid {
			continue
		}
		inDirs |= 1 << uint(2*i)
		if p.Taken {
			inDirs |= 2 << uint(2*i)
		}
		ctr := scGet(row, i)
		// The counter tracks agreement with the incoming prediction: deeply
		// negative means "incoming direction is usually wrong here".
		if ctr <= -c.thresh {
			overlay[i] = pred.Pred{
				DirValid:    true,
				Taken:       !p.Taken,
				DirProvider: c.id,
			}
		}
	}
	c.metaBuf[0] = row
	c.metaBuf[1] = uint64(idx) | inDirs<<32
	return pred.Response{Overlay: overlay, Meta: c.metaBuf[:]}
}

// Update implements pred.Subcomponent: per-slot agreement training.
func (c *StatCorrector) Update(e *pred.Event) {
	row := e.Meta[0]
	idx := int(e.Meta[1] & bitutil.Mask(32))
	inDirs := e.Meta[1] >> 32
	dirty := false
	for i, s := range e.Slots {
		if !s.Valid || !s.IsBranch || i >= c.cfg.FetchWidth {
			continue
		}
		if inDirs>>(2*i)&1 != 1 {
			continue // no incoming direction at predict time
		}
		inTaken := inDirs>>(2*i)&2 == 2
		ctr := scGet(row, i)
		if inTaken == s.Taken {
			ctr = satAddBound(ctr, 1, 31)
		} else {
			ctr = satAddBound(ctr, -1, 31)
		}
		row = scSet(row, i, ctr)
		dirty = true
	}
	if dirty {
		c.mem.Write(idx, row)
	}
}

func satAddBound(a, d, bound int8) int8 {
	s := int16(a) + int16(d)
	if s > int16(bound) {
		return bound
	}
	if s < int16(-bound-1) {
		return -bound - 1
	}
	return int8(s)
}

var _ pred.Subcomponent = (*StatCorrector)(nil)
