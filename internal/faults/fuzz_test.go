package faults_test

import (
	"testing"

	"cobra/internal/components"
	"cobra/internal/faults"
	"cobra/internal/history"
	"cobra/internal/pred"
)

// FuzzInjector hammers one injector-wrapped component with arbitrary
// predict/fire/mispredict/repair/update traffic under an arbitrary plan and
// checks the injector's own contracts: it never panics, its per-kind counters
// agree with the OnFault stream, and Reset rewinds the decision stream so the
// identical traffic replays the identical fault schedule.
func FuzzInjector(f *testing.F) {
	f.Add(uint64(1), uint64(4), uint32(faults.AllKinds), uint16(300), uint64(99))
	f.Add(uint64(7), uint64(1), uint32(faults.CorruptMeta|faults.DelayRepair), uint16(64), uint64(5))
	f.Add(uint64(0), uint64(13), uint32(faults.DropUpdate|faults.DupUpdate), uint16(500), uint64(1))
	f.Fuzz(func(t *testing.T, seed, period uint64, kinds uint32, steps uint16, tseed uint64) {
		period = period%64 + 1
		k := faults.Kind(kinds) & faults.AllKinds
		if k == 0 {
			k = faults.AllKinds
		}
		n := int(steps%600) + 16

		var faultsSeen int
		plan := &faults.Plan{Seed: seed, Period: period, Kinds: k,
			OnFault: func(faults.Record) { faultsSeen++ }}
		cfg := pred.DefaultConfig()
		comp, err := components.Build(components.Env{Cfg: cfg, Global: history.NewGlobal(64)}, "GTAG3")
		if err != nil {
			t.Fatal(err)
		}
		in, ok := plan.Wrap(comp).(*faults.Injector)
		if !ok {
			t.Fatalf("Wrap did not inject (plan %+v)", plan)
		}

		drive := func() map[faults.Kind]uint64 {
			rng := tseed
			draw := func() uint64 {
				rng += 0x9E3779B97F4A7C15
				x := rng
				x ^= x >> 30
				x *= 0xBF58476D1CE4E5B9
				x ^= x >> 27
				x *= 0x94D049BB133111EB
				return x ^ x>>31
			}
			var meta []uint64
			var pc uint64
			for i := 0; i < n; i++ {
				cycle := uint64(i)
				in.Tick(cycle)
				if meta == nil || draw()%3 == 0 {
					pc = 0x1000 + draw()%64*16
					g := draw()
					inputs := make([]pred.Packet, in.NumInputs())
					for j := range inputs {
						inputs[j] = make(pred.Packet, cfg.FetchWidth)
						inputs[j][0] = pred.Pred{DirValid: true, Taken: draw()%2 == 0, DirProvider: 1}
					}
					q := pred.Query{Cycle: cycle, PC: pc, GHist: g,
						GRaw: []uint64{g, 0}, Path: draw(), In: inputs}
					resp := in.Predict(&q)
					meta = append([]uint64(nil), resp.Meta...)
					continue
				}
				slot := int(draw() % uint64(cfg.FetchWidth))
				slots := make([]pred.SlotInfo, cfg.FetchWidth)
				slots[slot] = pred.SlotInfo{Valid: true, IsBranch: true,
					Taken: draw()%2 == 0, PC: cfg.SlotPC(pc, slot)}
				g := draw()
				ev := pred.Event{Cycle: cycle, PC: pc, GHist: g, GRaw: []uint64{g, 0},
					Meta: append([]uint64(nil), meta...), Slots: slots}
				switch draw() % 4 {
				case 0:
					in.Fire(&ev)
				case 1:
					slots[slot].Mispredicted = true
					in.Mispredict(&ev)
				case 2:
					in.Repair(&ev)
				default:
					in.Update(&ev)
				}
			}
			counts := map[faults.Kind]uint64{}
			for _, kind := range []faults.Kind{faults.CorruptMeta, faults.DropUpdate,
				faults.DupUpdate, faults.DelayFire, faults.DelayRepair,
				faults.FlipDirection, faults.FlipTarget} {
				if c := in.Injected(kind); c > 0 {
					counts[kind] = c
				}
			}
			return counts
		}

		first := drive()
		var total uint64
		for _, c := range first {
			total += c
		}
		if uint64(faultsSeen) != total {
			t.Fatalf("OnFault saw %d faults, counters say %d (%v)", faultsSeen, total, first)
		}
		in.Reset()
		if in.Injected(faults.CorruptMeta) != 0 {
			t.Fatal("Reset did not clear injection counters")
		}
		second := drive()
		if len(first) != len(second) {
			t.Fatalf("replay after Reset diverged: %v vs %v", first, second)
		}
		for kind, c := range first {
			if second[kind] != c {
				t.Fatalf("replay after Reset diverged on %v: %d vs %d", kind, c, second[kind])
			}
		}
	})
}
