package trace

import (
	"io"

	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/program"
)

// SimResult summarizes a trace-driven evaluation.
type SimResult struct {
	Branches    uint64
	Mispredicts uint64
	CFIs        uint64
}

// Accuracy is the conditional-branch direction accuracy.
func (r SimResult) Accuracy() float64 {
	if r.Branches == 0 {
		return 1
	}
	return 1 - float64(r.Mispredicts)/float64(r.Branches)
}

// MPKB returns mispredicts per thousand conditional branches.
func (r SimResult) MPKB() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches) * 1000
}

// Simulate drives a composed pipeline with a trace under idealized
// trace-simulator semantics: every branch is predicted with a perfect,
// non-speculative history; outcomes update the predictor immediately; there
// is no wrong path and no update delay.  One branch per fetch packet, slot
// 0 — the serialized view a trace gives.
func Simulate(p *compose.Pipeline, r *Reader) (SimResult, error) {
	var res SimResult
	cycle := uint64(0)
	// Accept copies the slot records into the entry, so one buffer serves
	// every record.  Each record fills one slot, and the next record zeroes
	// it again.
	slots := make([]pred.SlotInfo, p.Cfg.FetchWidth)
	slot := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		res.CFIs++
		cycle += uint64(p.Depth()) + 1
		p.Tick(cycle)
		e, stages := p.Predict(cycle, rec.PC)
		final := stages[p.Depth()-1]
		slots[slot] = pred.SlotInfo{}
		slot = p.Cfg.SlotOf(rec.PC)
		fp := final[slot]

		si := pred.SlotInfo{Valid: true, PC: rec.PC}
		switch rec.Kind {
		case program.KindBranch:
			si.IsBranch = true
		case program.KindJump:
			si.IsJump = true
		case program.KindCall:
			si.IsCall = true
		case program.KindRet:
			si.IsRet = true
		case program.KindIndirect:
			si.IsIndir = true
		}
		predTaken := fp.DirValid && fp.Taken
		if rec.Kind != program.KindBranch {
			predTaken = true // unconditional flow: direction is known
		}
		si.Taken = predTaken
		cfi := -1
		next := p.Cfg.PacketBase(rec.PC) + uint64(p.Cfg.PktBytes())
		if predTaken {
			cfi = slot
			if fp.TgtValid {
				next = fp.Target
			}
		}
		slots[slot] = si
		p.Accept(cycle, e, final, slots, cfi, next)

		if rec.Kind == program.KindBranch {
			res.Branches++
			if predTaken != rec.Taken {
				res.Mispredicts++
			}
		}
		p.Resolve(cycle, e, slot, rec.Taken, rec.Target)
		p.Commit(cycle, e)
	}
}
