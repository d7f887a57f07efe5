package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// component is the identity, storage and response buffers every library
// component shares.  Each component embeds one by value and allocates its
// SRAM through newMem, so the memory list is declared once and serves the
// pipeline clock (Mems), the area model (Budget), Tick and Reset alike.
// Predict writes the whole overlay packet and every metadata word that
// response hands it, so MetaWords is declared once too.  A component
// overrides only what differs: the events it uses, extra reset state, flop
// bits, inputs, or storage it models outside package sram.
type component struct {
	name    string
	id      pred.Provider
	latency int
	cfg     pred.Config
	mems    []*sram.Mem // in registration order
	overlay pred.Packet // FetchWidth slots
	meta    []uint64
}

// newComponent returns the shared part of a component that will own nmems
// memories and answer with metaWords metadata words, sizing the memory list
// and both response buffers once.
func newComponent(cfg pred.Config, name string, id pred.Provider, latency, nmems, metaWords int) component {
	c := component{name: name, id: id, latency: latency, cfg: cfg,
		overlay: make(pred.Packet, cfg.FetchWidth), meta: make([]uint64, metaWords)}
	if nmems > 0 {
		c.mems = make([]*sram.Mem, 0, nmems)
	}
	return c
}

// response hands Predict the overlay packet and the metadata words.  The
// composer is done with both before it calls Predict again, so one pair
// serves every prediction without allocating.  They still hold the last
// response: Predict writes every overlay slot, the zero pred.Pred where it
// passes predict_in through, and every metadata word, so nothing is
// cleared first.
func (c *component) response() (pred.Packet, []uint64) {
	return c.overlay, c.meta
}

// pcHistIndex is the gshare-style row index several tables share: the
// fetch PC and the low bits of a history, each XOR-folded to the index
// width and XORed together, with its folds and mask fixed when the table is
// built.
type pcHistIndex struct {
	pc, hist bitutil.Folder // PC>>pcShift and history, folded to idxBits
	histMask uint64         // Mask(histLen)
}

func newPCHistIndex(pcShift, idxBits, histLen uint) pcHistIndex {
	return pcHistIndex{
		pc:       bitutil.NewFolder(pcShift, idxBits),
		hist:     bitutil.NewFolder(0, idxBits),
		histMask: bitutil.Mask(histLen),
	}
}

// of returns the row for pc and hist; both folds fit idxBits.
func (x pcHistIndex) of(pc, hist uint64) int {
	return int(x.pc.Fold(pc) ^ x.hist.Fold(hist&x.histMask))
}

// newMem allocates a memory and registers it with the component.
func (c *component) newMem(spec sram.Spec) *sram.Mem {
	m := sram.New(spec)
	c.mems = append(c.mems, m)
	return m
}

// Name implements pred.Subcomponent.
func (c *component) Name() string { return c.name }

// Latency implements pred.Subcomponent.
func (c *component) Latency() int { return c.latency }

// NumInputs implements pred.Subcomponent: one predict_in edge.
func (c *component) NumInputs() int { return 1 }

// MetaWords implements pred.Subcomponent.
func (c *component) MetaWords() int { return len(c.meta) }

// UsesLocalHistory implements pred.Subcomponent.
func (c *component) UsesLocalHistory() bool { return false }

// Fire implements pred.Subcomponent: no speculative state to advance.
func (c *component) Fire(*pred.Event) {}

// Mispredict implements pred.Subcomponent: no fast update; training waits
// for Update at commit (§III-E).
func (c *component) Mispredict(*pred.Event) {}

// Repair implements pred.Subcomponent: no speculative state to restore.
func (c *component) Repair(*pred.Event) {}

// Mems implements pred.Subcomponent.
func (c *component) Mems() []*sram.Mem { return c.mems }

// Tick implements pred.Subcomponent.
func (c *component) Tick(cycle uint64) {
	for _, m := range c.mems {
		m.Tick(cycle)
	}
}

// Reset implements pred.Subcomponent: every memory returns to power-on.
func (c *component) Reset() {
	for _, m := range c.mems {
		m.Reset()
	}
}

// Budget implements pred.Subcomponent: the memories' specs, in
// registration order.
func (c *component) Budget() sram.Budget {
	var bg sram.Budget
	if len(c.mems) > 0 {
		bg.Mems = make([]sram.Spec, len(c.mems))
		for i, m := range c.mems {
			bg.Mems[i] = m.Spec()
		}
	}
	return bg
}
