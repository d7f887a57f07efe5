package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// Perceptron is the perceptron predictor of Jiménez & Lin, one of the
// component types §III-G says "may be implemented similarly" to the starter
// library.  It illustrates the interface's support for single-prediction
// components (§III-C): the perceptron computes one dot product per cycle and
// provides that single prediction for the entire fetch packet vector.
//
// Weights are trained at commit time only (global-history predictor), and
// the metadata field carries the predict-time weight vector address and the
// computed sum so the update can retrain without recomputing the dot
// product's inputs.
type Perceptron struct {
	pred.NopEvents
	name    string
	id      pred.Provider
	latency int
	cfg     pred.Config
	idxBits uint
	histLen uint
	theta   int32
	weights [][]int8 // [row][histLen+1], weights[_][0] = bias

	scratch pred.Packet
	metaBuf [1]uint64
}

// PerceptronParams configures a perceptron predictor.
type PerceptronParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int
	HistLen uint
}

// NewPerceptron builds a perceptron table.
func NewPerceptron(cfg pred.Config, p PerceptronParams) *Perceptron {
	if !bitutil.IsPow2(p.Entries) {
		panic("components: Perceptron entries must be a power of two")
	}
	if p.HistLen == 0 || p.HistLen > 63 {
		panic("components: Perceptron history length must be in [1,63]")
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	w := make([][]int8, p.Entries)
	for i := range w {
		w[i] = make([]int8, p.HistLen+1)
	}
	return &Perceptron{
		name:    p.Name,
		id:      p.ID,
		latency: p.Latency,
		cfg:     cfg,
		idxBits: bitutil.Clog2(p.Entries),
		histLen: p.HistLen,
		theta:   int32(1.93*float64(p.HistLen) + 14), // Jiménez's threshold
		weights: w,
		scratch: make(pred.Packet, cfg.FetchWidth),
	}
}

// Name implements pred.Subcomponent.
func (p *Perceptron) Name() string { return p.name }

// Latency implements pred.Subcomponent.
func (p *Perceptron) Latency() int { return p.latency }

// MetaWords implements pred.Subcomponent: word 0 = index | |sum|<<24 |
// signs/flags.
func (p *Perceptron) MetaWords() int { return 1 }

// NumInputs implements pred.Subcomponent.
func (p *Perceptron) NumInputs() int { return 1 }

func (p *Perceptron) index(pc uint64) int {
	return int(bitutil.MixPC(pc, p.cfg.PktOff(), p.idxBits))
}

func (p *Perceptron) dot(idx int, ghist uint64) int32 {
	w := p.weights[idx]
	sum := int32(w[0])
	for i := uint(0); i < p.histLen; i++ {
		if ghist>>i&1 == 1 {
			sum += int32(w[i+1])
		} else {
			sum -= int32(w[i+1])
		}
	}
	return sum
}

// Predict implements pred.Subcomponent.
func (p *Perceptron) Predict(q *pred.Query) pred.Response {
	idx := p.index(q.PC)
	sum := p.dot(idx, q.GHist)
	taken := sum >= 0
	overlay := p.scratch
	for i := range overlay {
		overlay[i] = pred.Pred{DirValid: true, Taken: taken, DirProvider: p.id}
	}
	mag := sum
	if mag < 0 {
		mag = -mag
	}
	meta := uint64(idx) | uint64(uint32(mag))<<24
	if taken {
		meta |= 1 << 62
	}
	p.metaBuf[0] = meta
	return pred.Response{Overlay: overlay, Meta: p.metaBuf[:]}
}

// Update implements pred.Subcomponent: perceptron learning rule at commit.
func (p *Perceptron) Update(e *pred.Event) {
	idx := int(e.Meta[0] & bitutil.Mask(24))
	mag := int32(uint32(e.Meta[0] >> 24 & bitutil.Mask(32)))
	predTaken := e.Meta[0]>>62&1 == 1
	for _, s := range e.Slots {
		if !s.Valid || !s.IsBranch {
			continue
		}
		if predTaken == s.Taken && mag > p.theta {
			continue // confident and correct: no training
		}
		w := p.weights[idx]
		t := int8(-1)
		if s.Taken {
			t = 1
		}
		w[0] = satAdd8(w[0], t)
		for i := uint(0); i < p.histLen; i++ {
			x := int8(-1)
			if e.GHist>>i&1 == 1 {
				x = 1
			}
			w[i+1] = satAdd8(w[i+1], t*x)
		}
	}
}

func satAdd8(a, d int8) int8 {
	s := int16(a) + int16(d)
	if s > 63 {
		return 63
	}
	if s < -64 {
		return -64
	}
	return int8(s)
}

// Reset implements pred.Subcomponent.
func (p *Perceptron) Reset() {
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
}

// Tick implements pred.Subcomponent.
func (p *Perceptron) Tick(uint64) {}

// Budget implements pred.Subcomponent: 7-bit weights.
func (p *Perceptron) Budget() sram.Budget {
	return sram.Budget{Mems: []sram.Spec{{
		Name:       p.name,
		Entries:    len(p.weights),
		Width:      int(p.histLen+1) * 7,
		ReadPorts:  1,
		WritePorts: 1,
	}}}
}

var _ pred.Subcomponent = (*Perceptron)(nil)
