package compose

import "testing"

// TestPortDiscipline audits the §III-D claim: with the metadata round-trip,
// every counter-table-class memory sustains full throughput — one predict
// and one update per cycle — within a 1R1W port budget.  The memories
// panic on port overuse when CheckPorts is set, so simply running the
// pipeline in strict mode is the assertion.
//
// The BTB is excluded: its update path legitimately re-checks the tag (a
// real second read hardware pays for, or pipelines around); the components
// whose §III-D story is "metadata avoids the second read" are the counter
// tables, GTAG, TAGE, the tournament selector, and the corrector.
func TestPortDiscipline(t *testing.T) {
	for _, topo := range []string{
		"TAGE3 > GTAG3 > BIM2",
		"SCOR3 > GBIM2 > BIM2",
		"TOURNEY3 > [GBIM2, LBIM2]",
	} {
		p := mustPipeline(t, topo, Options{GHistBits: 64})
		for _, comp := range p.Components() {
			for _, m := range comp.Mems() {
				m.CheckPorts = true
			}
		}
		cycle := uint64(0)
		tick := func() {
			cycle++
			p.Tick(cycle)
		}
		for i := 0; i < 2000; i++ {
			pc := uint64(0x1000 + (i%128)*16)
			tick()
			e, stages := p.Predict(cycle, pc)
			if e == nil {
				t.Fatal("stall")
			}
			taken := i%3 == 0
			slots := brSlots(p, pc, map[int]bool{i % 4: taken})
			cfi := -1
			next := p.Cfg.PacketBase(pc) + uint64(p.Cfg.PktBytes())
			if taken {
				cfi = i % 4
				next = 0x9000
			}
			p.Accept(cycle, e, stages[p.Depth()-1], slots, cfi, next)
			tick()
			p.Resolve(cycle, e, i%4, i%5 == 0, 0x9000)
			tick()
			p.Commit(cycle, e)
		}
		// Confirm the audit had teeth: the memories saw real traffic.
		for _, comp := range p.Components() {
			for _, m := range comp.Mems() {
				if m.TotalReads == 0 {
					t.Errorf("%s: %s never read; audit vacuous", topo, m.Spec().Name)
				}
			}
		}
	}
}

// TestPortPressureReported confirms the non-strict mode records worst-case
// port pressure for the area report instead of panicking.
func TestPortPressureReported(t *testing.T) {
	p := mustPipeline(t, "BIM2", Options{})
	mem := p.Components()[0].Mems()[0]
	// Two predicts in the same tick: 2 reads on a 1R memory — tolerated,
	// recorded.
	p.Tick(1)
	e1, s1 := p.Predict(1, 0x1000)
	p.Accept(1, e1, s1[0], brSlots(p, 0x1000, nil), -1, 0x1010)
	e2, s2 := p.Predict(1, 0x2000)
	p.Accept(1, e2, s2[0], brSlots(p, 0x2000, nil), -1, 0x2010)
	if mem.MaxReadsPerCycle < 2 {
		t.Errorf("MaxReadsPerCycle = %d, want >= 2", mem.MaxReadsPerCycle)
	}
}
