// Package components is the COBRA sub-component starter library (§III-G):
// history-indexed bimodal counter tables, BTBs, a micro-BTB, a partially
// tagged global table, a TAGE predictor, a tournament selector, and a loop
// predictor — plus the extensions the paper names as implementable under the
// same interface (perceptron, statistical corrector) and a return-address
// stack kept outside the composed pipeline, as in the paper.
//
// Every component implements pred.Subcomponent.  Components are superscalar
// where the hardware would be (counter tables and BTBs read one row holding
// one entry per fetch-packet slot), and single-prediction where the paper
// says that is natural (loop, perceptron).
//
// Every component embeds one component struct, which holds its name,
// provider ID, latency and fetch geometry and declares its storage once:
// each sram.Mem is allocated through newMem, and that one list serves
// Mems (the pipeline clock and the energy model), Tick, Reset and Budget,
// so port pressure and the area model see the same tables.  The loop
// predictor and the perceptron are the exceptions: their Budget charges
// an SRAM they model as Go slices, which no sram.Mem counts.
package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// IndexSource selects what an HBIM counter table hashes into its row index
// (the "parameterized indexing option" of §III-G.1).
type IndexSource int

const (
	// IndexPC indexes purely by fetch PC (classic bimodal).
	IndexPC IndexSource = iota
	// IndexGlobal indexes by global history XOR PC (gshare style).
	IndexGlobal
	// IndexLocal indexes by the per-PC local history XOR PC.
	IndexLocal
	// IndexGSelect concatenates PC and global history bits.
	IndexGSelect
	// IndexPath indexes by path history XOR PC.
	IndexPath
)

func (s IndexSource) String() string {
	switch s {
	case IndexPC:
		return "pc"
	case IndexGlobal:
		return "global"
	case IndexLocal:
		return "local"
	case IndexGSelect:
		return "gselect"
	case IndexPath:
		return "path"
	}
	return "unknown"
}

// HBIM is the history-indexed bimodal counter table.  One row holds
// FetchWidth 2-bit counters so adjacent branches in a packet do not alias
// onto a single counter (§III-C).  The metadata field stores the counters
// read at predict time so update needs no second read port (§III-D).
type HBIM struct {
	pred.NopEvents
	component
	source  IndexSource
	ctrBits uint
	idxBits uint
	histLen uint // history bits consumed (Global/Local/GSelect/Path sources)
	mem     *sram.Mem

	scratch pred.Packet // reused overlay buffer (fully rewritten per predict)
	metaBuf [1]uint64
}

// HBIMParams configures an HBIM instance.
type HBIMParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int // rows; each row holds FetchWidth counters
	Source  IndexSource
	HistLen uint // history bits folded into the index (ignored for IndexPC)
	CtrBits uint // counter width, default 2
}

// NewHBIM builds a counter table.
func NewHBIM(cfg pred.Config, p HBIMParams) *HBIM {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: HBIM entries must be a power of two")
	}
	if p.CtrBits == 0 {
		p.CtrBits = 2
	}
	if p.Latency < 1 {
		p.Latency = 2
	}
	idxBits := bitutil.Clog2(p.Entries)
	if p.Source != IndexPC && p.HistLen == 0 {
		p.HistLen = idxBits
	}
	h := &HBIM{
		component: newComponent(cfg, p.Name, p.ID, p.Latency, 1),
		source:    p.Source,
		ctrBits:   p.CtrBits,
		idxBits:   idxBits,
		histLen:   p.HistLen,
		scratch:   make(pred.Packet, cfg.FetchWidth),
	}
	h.mem = h.newMem(sram.Spec{
		Name:       p.Name,
		Entries:    p.Entries,
		Width:      cfg.FetchWidth * int(p.CtrBits),
		ReadPorts:  1,
		WritePorts: 1,
	})
	return h
}

// MetaWords implements pred.Subcomponent: one word packs the row counters.
func (h *HBIM) MetaWords() int { return 1 }

// Source returns the configured index source.
func (h *HBIM) Source() IndexSource { return h.source }

// UsesLocalHistory tells the composer whether it must generate a local
// history provider for this component (§IV-B.3).
func (h *HBIM) UsesLocalHistory() bool { return h.source == IndexLocal }

func (h *HBIM) index(pc, ghist, lhist, path uint64) int {
	pcPart := bitutil.MixPC(pc, h.cfg.PktOff(), h.idxBits)
	var idx uint64
	switch h.source {
	case IndexPC:
		idx = pcPart
	case IndexGlobal:
		idx = pcPart ^ bitutil.XorFold(ghist&bitutil.Mask(h.histLen), h.idxBits)
	case IndexLocal:
		idx = pcPart ^ bitutil.XorFold(lhist&bitutil.Mask(h.histLen), h.idxBits)
	case IndexGSelect:
		// Concatenate: low half PC, high half history.
		half := h.idxBits / 2
		idx = (pcPart & bitutil.Mask(half)) |
			((ghist & bitutil.Mask(h.idxBits-half)) << half)
	case IndexPath:
		idx = pcPart ^ bitutil.XorFold(path&bitutil.Mask(h.histLen), h.idxBits)
	}
	return int(idx & bitutil.Mask(h.idxBits))
}

func (h *HBIM) ctrAt(row uint64, slot int) uint8 {
	return uint8(bitutil.Bits(row, uint(slot)*h.ctrBits, h.ctrBits))
}

func (h *HBIM) setCtr(row uint64, slot int, c uint8) uint64 {
	sh := uint(slot) * h.ctrBits
	row &^= bitutil.Mask(h.ctrBits) << sh
	return row | (uint64(c)&bitutil.Mask(h.ctrBits))<<sh
}

// Predict implements pred.Subcomponent: an untagged table provides a base
// direction for every slot of the packet (§III-F).
func (h *HBIM) Predict(q *pred.Query) pred.Response {
	idx := h.index(q.PC, q.GHist, q.LHist, q.Path)
	row := h.mem.Read(idx)
	overlay := h.scratch
	for i := 0; i < h.cfg.FetchWidth; i++ {
		overlay[i] = pred.Pred{
			DirValid:    true,
			Taken:       bitutil.CtrTaken(h.ctrAt(row, i), h.ctrBits),
			DirProvider: h.id,
		}
	}
	h.metaBuf[0] = row
	return pred.Response{Overlay: overlay, Meta: h.metaBuf[:]}
}

// Mispredict implements pred.Subcomponent: the "fast" immediate update of
// §III-E.  Counter tables tolerate delayed updates but benefit from fast
// correction on tight loops, where commit-time-only training lags several
// in-flight iterations behind.
func (h *HBIM) Mispredict(e *pred.Event) { h.Update(e) }

// Update implements pred.Subcomponent: commit-time training.  The row
// contents come back via metadata, so the update is a pure read-modify-write
// of predict-time data with a single write port (§III-D).
func (h *HBIM) Update(e *pred.Event) {
	idx := h.index(e.PC, e.GHist, e.LHist, e.Path)
	row := e.Meta[0]
	dirty := false
	for i, s := range e.Slots {
		if !s.Valid || !s.IsBranch || i >= h.cfg.FetchWidth {
			continue
		}
		c := bitutil.CtrUpdate(h.ctrAt(row, i), s.Taken, h.ctrBits)
		row = h.setCtr(row, i, c)
		dirty = true
	}
	if dirty {
		h.mem.Write(idx, row)
	}
}

var _ pred.Subcomponent = (*HBIM)(nil)
