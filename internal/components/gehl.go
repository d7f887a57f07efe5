package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// GEHL is Seznec's GEometric History Length predictor ([38] in the paper):
// several tables of signed counters indexed by hashes of geometrically
// increasing history lengths; the prediction is the sign of the sum.
// Unlike TAGE there are no tags — every table always contributes — and
// training is perceptron-style with a dynamic threshold.
//
// Like the perceptron, GEHL is a single-prediction component (§III-C): one
// adder tree per cycle, one direction for the whole packet.  The metadata
// carries the per-table indices and counters so commit-time training needs
// no second read (§III-D).
type GEHL struct {
	pred.NopEvents
	component

	tables []*gehlTable
	theta  int32
	tc     int8 // threshold-adaptation counter
}

type gehlTable struct {
	idxBits uint
	histLen uint
	fold    *bitutil.FoldedHistory
	mem     *sram.Mem // 4-bit signed counters, two's complement in 4 bits
}

const gehlCtrBits = 4

// GEHLParams configures a GEHL instance.
type GEHLParams struct {
	Name         string
	ID           pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency      int
	TableEntries []int
	HistLens     []uint
}

// DefaultGEHLParams is a compact 5-table O-GEHL-style configuration.
func DefaultGEHLParams(name string) GEHLParams {
	return GEHLParams{
		Name:         name,
		Latency:      3,
		TableEntries: []int{1024, 1024, 1024, 512, 512},
		HistLens:     []uint{0, 4, 10, 24, 48}, // table 0 is bias (PC only)
	}
}

// NewGEHL builds the predictor, registering its folds with the global
// history provider.
func NewGEHL(cfg pred.Config, g *history.Global, p GEHLParams) *GEHL {
	if len(p.TableEntries) == 0 || len(p.TableEntries) != len(p.HistLens) {
		panic("components: GEHL parameter slices must match and be non-empty")
	}
	if p.Latency < 1 {
		p.Latency = 3
	}
	t := &GEHL{component: newComponent(cfg, p.Name, p.ID, p.Latency, len(p.TableEntries)),
		theta: int32(2*len(p.TableEntries) + 1)}
	for i := range p.TableEntries {
		if !bitutil.IsPow2(p.TableEntries[i]) {
			panic("components: GEHL table entries must be powers of two")
		}
		idxBits := bitutil.Clog2(p.TableEntries[i])
		tb := &gehlTable{idxBits: idxBits, histLen: p.HistLens[i]}
		if tb.histLen > 0 {
			tb.fold = g.NewFold(tb.histLen, idxBits)
		}
		tb.mem = t.newMem(sram.Spec{
			Name:       p.Name + "_t",
			Entries:    p.TableEntries[i],
			Width:      gehlCtrBits,
			ReadPorts:  1,
			WritePorts: 1,
		})
		t.tables = append(t.tables, tb)
	}
	return t
}

// MetaWords implements pred.Subcomponent: word 0 packs sum sign+magnitude;
// then one word per table packing index|counter.
func (t *GEHL) MetaWords() int { return 1 + len(t.tables) }

func (tb *gehlTable) index(cfg pred.Config, pc uint64) uint64 {
	pcPart := bitutil.MixPC(pc, cfg.PktOff(), tb.idxBits)
	if tb.fold == nil {
		return pcPart & bitutil.Mask(tb.idxBits)
	}
	return (pcPart ^ tb.fold.Fold()) & bitutil.Mask(tb.idxBits)
}

func gehlGet(raw uint64) int8 { return int8(uint8(raw)<<4) >> 4 } // sign-extend 4 bits
func gehlPut(v int8) uint64   { return uint64(uint8(v)) & 0xF }
func gehlSat(v int8, d int8) int8 {
	s := v + d
	if s > 7 {
		return 7
	}
	if s < -8 {
		return -8
	}
	return s
}

// Predict implements pred.Subcomponent: sign of the counter sum, one
// direction for the whole packet.
func (t *GEHL) Predict(q *pred.Query) pred.Response {
	meta := make([]uint64, t.MetaWords())
	var sum int32
	for i, tb := range t.tables {
		idx := tb.index(t.cfg, q.PC)
		raw := tb.mem.Read(int(idx))
		c := gehlGet(raw)
		sum += 2*int32(c) + 1 // the standard GEHL centering
		meta[1+i] = idx | uint64(uint8(c))<<32
	}
	taken := sum >= 0
	mag := sum
	if mag < 0 {
		mag = -mag
	}
	meta[0] = uint64(uint32(mag))
	if taken {
		meta[0] |= 1 << 62
	}
	overlay := make(pred.Packet, t.cfg.FetchWidth)
	for i := range overlay {
		overlay[i] = pred.Pred{DirValid: true, Taken: taken, DirProvider: t.id}
	}
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: perceptron-style training on the
// first committed branch, with O-GEHL's adaptive threshold.
func (t *GEHL) Update(e *pred.Event) {
	slot := -1
	for i := range e.Slots {
		if e.Slots[i].Valid && e.Slots[i].IsBranch {
			slot = i
			break
		}
	}
	if slot < 0 {
		return
	}
	outcome := e.Slots[slot].Taken
	predTaken := e.Meta[0]>>62&1 == 1
	mag := int32(uint32(e.Meta[0] & bitutil.Mask(32)))
	correct := predTaken == outcome
	if correct && mag > t.theta {
		return
	}
	d := int8(-1)
	if outcome {
		d = 1
	}
	for i, tb := range t.tables {
		idx := int(e.Meta[1+i] & bitutil.Mask(32))
		c := gehlGet(e.Meta[1+i] >> 32)
		tb.mem.Write(idx, gehlPut(gehlSat(c, d)))
	}
	// Adaptive threshold (O-GEHL): mispredicts push theta up, low-margin
	// correct predictions push it down.
	if !correct {
		if t.tc < 63 {
			t.tc++
		}
		if t.tc == 63 {
			t.theta++
			t.tc = 0
		}
	} else if mag <= t.theta {
		if t.tc > -64 {
			t.tc--
		}
		if t.tc == -64 {
			if t.theta > 1 {
				t.theta--
			}
			t.tc = 0
		}
	}
}

// Mispredict trains immediately on resolved mispredicts (§III-E fast path).
func (t *GEHL) Mispredict(e *pred.Event) { t.Update(e) }

// Reset implements pred.Subcomponent.
func (t *GEHL) Reset() {
	t.component.Reset()
	t.theta = int32(2*len(t.tables) + 1)
	t.tc = 0
}

// Budget implements pred.Subcomponent: the tables plus the folded-history
// registers and the threshold state.
func (t *GEHL) Budget() sram.Budget {
	bg := t.component.Budget()
	for _, tb := range t.tables {
		if tb.fold != nil {
			bg.FlopBits += int(tb.fold.Width())
		}
	}
	bg.FlopBits += 32 + 8 // theta + tc
	return bg
}

var _ pred.Subcomponent = (*GEHL)(nil)
