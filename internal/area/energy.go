package area

import (
	"fmt"
	"math"

	"cobra/internal/compose"
	"cobra/internal/sram"
)

// Energy modelling — the concern §VI-A flags as next ("the energy cost of
// continuously reading predictor SRAMs is significant").  Per-access energy
// follows the standard CACTI-style scaling: roughly proportional to the
// square root of the array size (bitline/wordline lengths), with writes
// costing ~1.3x reads and flop-array accesses a small constant.  Units are
// arbitrary ("eU"), comparable across designs.

const (
	energyPerRootBit = 0.9 // eU per sqrt(array bits) per access
	writeFactor      = 1.3
	energyBase       = 2.0 // decoder/sense fixed cost per access
)

// accessEnergy is the per-access cost of one memory.
func accessEnergy(spec sram.Spec) float64 {
	return energyBase + energyPerRootBit*math.Sqrt(float64(spec.Bits()))
}

// EnergyItem is one component's accumulated access energy.
type EnergyItem struct {
	Name   string
	Reads  uint64
	Writes uint64
	Units  float64
}

// EnergyReport summarizes a pipeline's SRAM access energy after a run.
type EnergyReport struct {
	Items []EnergyItem
}

// Total sums the access energy.
func (r EnergyReport) Total() float64 {
	var t float64
	for _, it := range r.Items {
		t += it.Units
	}
	return t
}

// PerKiloInst normalizes by committed instructions.
func (r EnergyReport) PerKiloInst(insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return r.Total() / float64(insts) * 1000
}

// Energy collects the access counters from every SRAM-backed sub-component
// of a composed pipeline.  Call after a simulation run; counters accumulate
// from construction (use Pipeline.Reset to clear).
func Energy(p *compose.Pipeline) EnergyReport {
	var rep EnergyReport
	for _, comp := range p.Components() {
		mems := comp.Mems()
		if len(mems) == 0 {
			continue // flop-based, or SRAM modelled outside package sram
		}
		it := EnergyItem{Name: comp.Name()}
		for _, m := range mems {
			e := accessEnergy(m.Spec())
			it.Reads += m.TotalReads
			it.Writes += m.TotalWrites
			it.Units += float64(m.TotalReads)*e + float64(m.TotalWrites)*e*writeFactor
		}
		rep.Items = append(rep.Items, it)
	}
	return rep
}

// Render prints the per-component energy with shares.
func (r EnergyReport) Render() string {
	out := ""
	total := r.Total()
	for _, it := range r.Items {
		frac := 0.0
		if total > 0 {
			frac = it.Units / total
		}
		out += fmt.Sprintf("  %-14s reads=%-10d writes=%-9d %10.0f eU %5.1f%%\n",
			it.Name, it.Reads, it.Writes, it.Units, frac*100)
	}
	return out
}
