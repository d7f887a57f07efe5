package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// GSkew is the 2bc-gskew-style predictor of the Alpha EV8 lineage ([42] in
// the paper): three counter banks indexed by *different* hashes of (PC,
// history) vote by majority, so a conflict alias in one bank is outvoted by
// the other two — the enhanced skewed-associativity answer to gshare's
// aliasing (the pathology the paper's Fig. 10 pins on the Tournament).
//
// Each bank row holds FetchWidth 2-bit counters (§III-C superscalar
// organization).  Metadata carries all three rows so update is write-only
// (§III-D), with the EV8 partial-update rule: only agreeing banks train on
// a correct prediction; all banks train on a mispredict.
type GSkew struct {
	pred.NopEvents
	component
	idxBits uint
	histLen uint
	banks   [3]*sram.Mem

	scratch pred.Packet
	metaBuf [3]uint64
}

// GSkewParams configures a GSkew instance.
type GSkewParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Rows    int // rows per bank
	HistLen uint
}

// NewGSkew builds the three-bank majority predictor.
func NewGSkew(cfg pred.Config, p GSkewParams) *GSkew {
	if p.Rows == 0 {
		p.Rows = 1024
	}
	if !bitutil.IsPow2(p.Rows) {
		panic("components: GSkew rows must be a power of two")
	}
	if p.HistLen == 0 {
		p.HistLen = 16
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	g := &GSkew{
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 3),
		idxBits:   bitutil.Clog2(p.Rows),
		histLen:   p.HistLen,
		scratch:   make(pred.Packet, cfg.FetchWidth),
	}
	for b := range g.banks {
		g.banks[b] = g.newMem(sram.Spec{
			Name:       p.Name + "_bank",
			Entries:    p.Rows,
			Width:      cfg.FetchWidth * 2,
			ReadPorts:  1,
			WritePorts: 1,
		})
	}
	return g
}

// MetaWords implements pred.Subcomponent: one row+index word per bank.
func (g *GSkew) MetaWords() int { return 3 }

// skewed indexing: three distinct mixes of (pc, hist) — the skewing
// functions decorrelate conflict aliases across banks.
func (g *GSkew) index(bank int, pc, ghist uint64) int {
	pcPart := bitutil.MixPC(pc, g.cfg.PktOff(), g.idxBits)
	h := ghist & bitutil.Mask(g.histLen)
	var v uint64
	switch bank {
	case 0:
		v = pcPart ^ bitutil.XorFold(h, g.idxBits)
	case 1:
		v = pcPart ^ bitutil.XorFold(h*0x9E37, g.idxBits) ^ pcPart>>3
	default:
		v = bitutil.XorFold(h^pcPart<<2, g.idxBits) ^ pcPart>>1
	}
	return int(v & bitutil.Mask(g.idxBits))
}

// Predict implements pred.Subcomponent: per-slot majority of the banks.
func (g *GSkew) Predict(q *pred.Query) pred.Response {
	var rows [3]uint64
	for b := range g.banks {
		idx := g.index(b, q.PC, q.GHist)
		rows[b] = g.banks[b].Read(idx)
		g.metaBuf[b] = rows[b] | uint64(idx)<<32
	}
	overlay := g.scratch
	for i := 0; i < g.cfg.FetchWidth; i++ {
		votes := 0
		for b := range rows {
			if bitutil.CtrTaken(uint8(bitutil.Bits(rows[b], uint(i)*2, 2)), 2) {
				votes++
			}
		}
		overlay[i] = pred.Pred{DirValid: true, Taken: votes >= 2, DirProvider: g.id}
	}
	return pred.Response{Overlay: overlay, Meta: g.metaBuf[:]}
}

// Update implements pred.Subcomponent with the EV8 partial-update rule.
func (g *GSkew) Update(e *pred.Event) {
	var rows [3]uint64
	var idxs [3]int
	var dirty [3]bool
	for b := range rows {
		rows[b] = e.Meta[b] & bitutil.Mask(32)
		idxs[b] = int(e.Meta[b] >> 32)
	}
	for i, s := range e.Slots {
		if !s.Valid || !s.IsBranch || i >= g.cfg.FetchWidth {
			continue
		}
		sh := uint(i) * 2
		var ctr [3]uint8
		votes := 0
		for b := range rows {
			ctr[b] = uint8(bitutil.Bits(rows[b], sh, 2))
			if bitutil.CtrTaken(ctr[b], 2) {
				votes++
			}
		}
		majority := votes >= 2
		for b := range rows {
			bankVote := bitutil.CtrTaken(ctr[b], 2)
			// Partial update: on a correct majority, only banks that agreed
			// strengthen; on a wrong majority, every bank trains.
			if majority == s.Taken && bankVote != majority {
				continue
			}
			nc := bitutil.CtrUpdate(ctr[b], s.Taken, 2)
			if nc != ctr[b] {
				rows[b] = rows[b]&^(uint64(3)<<sh) | uint64(nc)<<sh
				dirty[b] = true
			}
		}
	}
	for b := range rows {
		if dirty[b] {
			g.banks[b].Write(idxs[b], rows[b])
		}
	}
}

// Mispredict trains immediately (§III-E fast path).
func (g *GSkew) Mispredict(e *pred.Event) { g.Update(e) }

var _ pred.Subcomponent = (*GSkew)(nil)

func init() {
	Register("GEHL", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		p := DefaultGEHLParams(name)
		p.ID = env.ID
		if latency > 0 {
			p.Latency = latency
		}
		if err := needHistory(env, name, p.HistLens...); err != nil {
			return nil, err
		}
		return NewGEHL(env.Cfg, env.Global, p), nil
	})
	Register("YAGS", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		prm := YAGSParams{Name: name, ID: env.ID, Latency: latency}
		if size > 0 {
			prm.ChoiceRows = size
			prm.ExcEntries = size / 4
		}
		return NewYAGS(env.Cfg, prm), nil
	})
	Register("GSKEW", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		prm := GSkewParams{Name: name, ID: env.ID, Latency: latency}
		if size > 0 {
			prm.Rows = size
		}
		return NewGSkew(env.Cfg, prm), nil
	})
}
