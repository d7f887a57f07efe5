package components

import (
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// component is the identity and storage every library component shares.
// Each component embeds one by value and allocates its SRAM through newMem,
// so the memory list is declared once and serves the pipeline clock
// (Mems), the area model (Budget), Tick and Reset alike.  A component
// overrides only what differs: extra reset state, flop bits, inputs, or
// storage it models outside package sram.
type component struct {
	name    string
	id      pred.Provider
	latency int
	cfg     pred.Config
	mems    []*sram.Mem // in registration order
}

// newComponent returns the shared part of a component that will own nmems
// memories, sizing the memory list once.
func newComponent(cfg pred.Config, name string, id pred.Provider, latency, nmems int) component {
	c := component{name: name, id: id, latency: latency, cfg: cfg}
	if nmems > 0 {
		c.mems = make([]*sram.Mem, 0, nmems)
	}
	return c
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

// UsesLocalHistory implements pred.Subcomponent.
func (c *component) UsesLocalHistory() bool { return false }

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
