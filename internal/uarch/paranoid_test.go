package uarch

import (
	"reflect"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/interval"
	"cobra/internal/program"
	"cobra/internal/stats"
)

// TestParanoidCleanOnRealRuns drives every Table I seed design through a
// mispredict-heavy workload with the invariant checker armed: a healthy
// pipeline must produce zero violations under every GHR policy, and a
// healthy core on every host.  Each run warms up first and records interval
// windows, so the checker also reconciles the telemetry with the result.
func TestParanoidCleanOnRealRuns(t *testing.T) {
	b := program.NewBuilder("paranoid", 0x1000, 4, 5)
	b.Loop(50, func() {
		b.Ops(2, 0, 0, 0, nil)
		b.Hammock(0.5, 2, program.ClassALU)
	})
	prog := b.MustSeal()

	// The host axis runs a workload whose L2-resident loads, stores and FP
	// ops are multi-cycle producers, so consumers wait in the ROB and the
	// checker's comparison of the core's scheduler slot sets against a
	// full ROB scan sees the wakeup path.  ROB sizes that are not a
	// multiple of 64, or exceed 64, exercise word boundaries and head wrap.
	b = program.NewBuilder("paranoid-deps", 0x1000, 4, 5)
	b.Loop(50, func() {
		b.Ops(6, 0.3, 0.1, 0.2, func() program.MemBehavior {
			return &program.RandMem{Base: 0x100000, Size: 1 << 16}
		})
		b.Hammock(0.5, 2, program.ClassALU)
	})
	deps := b.MustSeal()

	designs := []struct {
		name string
		topo string
		opt  compose.Options
	}{
		{"b2", "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16}},
		{"tourney", "TOURNEY3 > [GBIM2 > BTB2, LBIM2]",
			compose.Options{GHistBits: 32, LocalEntries: 256, LocalHistBits: 32}},
		{"tage-l", "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}},
	}
	policies := []compose.GHRPolicy{compose.GHRRepair, compose.GHRRepairReplay, compose.GHRNoRepair}
	rob := func(n int) func() Config {
		return func() Config { c := DefaultConfig(); c.ROBEntries = n; return c }
	}
	hosts := []struct {
		name string
		cfg  func() Config
	}{
		{"boom", DefaultConfig},
		{"inorder", InOrderConfig},
		{"rob8", rob(8)},
		{"rob65", rob(65)},
		{"rob100", rob(100)},
		{"rob130", rob(130)},
	}

	for _, d := range designs {
		for _, pol := range policies {
			t.Run(d.name+"/"+pol.String(), func(t *testing.T) {
				paranoidRun(t, DefaultConfig(), d.topo, d.opt, pol, prog, 20000)
			})
		}
	}
	for _, h := range hosts {
		for _, d := range designs {
			t.Run(h.name+"/"+d.name, func(t *testing.T) {
				paranoidRun(t, h.cfg(), d.topo, d.opt, compose.GHRRepair, deps, 10000)
			})
		}
	}
}

func paranoidRun(t *testing.T, cfg Config, topo string, opt compose.Options, pol compose.GHRPolicy, prog *program.Program, insts uint64) {
	t.Helper()
	opt.Paranoid = true
	opt.GHRPolicy = pol
	bp := mkPipeline(t, topo, opt)
	core := NewCore(cfg, bp, prog, 7)
	core.SetRecorder(interval.NewRecorder(1000, nil))
	core.Run(insts / 4)
	core.ResetStats()
	s := core.Run(insts)
	if s.Mispredicts == 0 {
		t.Fatal("workload produced no mispredicts; repair paths untested")
	}
	if n := bp.ViolationCount(); n != 0 {
		for _, v := range bp.Violations()[:min(3, len(bp.Violations()))] {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d invariant violations on a healthy pipeline", n)
	}
}

// TestWheelEdgeCases runs the completion wheel at its edges with the
// invariant checker armed: a zero ALU latency, whose entries complete on
// the cycle after issue, and a memory latency longer than the wheel, whose
// entries wait out whole turns in their bucket.  Each run must be clean
// and repeat exactly.
func TestWheelEdgeCases(t *testing.T) {
	b := program.NewBuilder("wheel", 0x1000, 4, 9)
	b.Loop(40, func() {
		b.Ops(6, 0.3, 0.1, 0.2, func() program.MemBehavior {
			return &program.RandMem{Base: 0x100000, Size: 1 << 22} // misses L2
		})
		b.Hammock(0.5, 2, program.ClassALU)
	})
	prog := b.MustSeal()

	alu0 := func(c Config) Config { c.ALULat = 0; return c }
	slowMem := func(c Config) Config { c.MemLat = 3 * maxWheel; return c }
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"alu0", alu0(DefaultConfig())},
		{"alu0/inorder", alu0(InOrderConfig())},
		{"mem-over-wheel", slowMem(DefaultConfig())},
		{"mem-over-wheel/alu0", slowMem(alu0(DefaultConfig()))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.cfg.MemLat > maxWheel && wheelBuckets(tc.cfg) != maxWheel {
				t.Fatalf("wheel has %d buckets, want the cap %d", wheelBuckets(tc.cfg), maxWheel)
			}
			runOnce := func() stats.Sim {
				opt := compose.Options{GHistBits: 16, Paranoid: true}
				bp := mkPipeline(t, "GTAG3 > BTB2 > BIM2", opt)
				core := NewCore(tc.cfg, bp, prog, 7)
				s := *core.Run(8000)
				if n := bp.ViolationCount(); n != 0 {
					for _, v := range bp.Violations()[:min(3, n)] {
						t.Errorf("violation: %v", v)
					}
					t.Fatalf("%d invariant violations", n)
				}
				return s
			}
			first := runOnce()
			if first.Instructions < 8000 || first.Mispredicts == 0 {
				t.Fatalf("run committed %d instructions with %d mispredicts", first.Instructions, first.Mispredicts)
			}
			if again := runOnce(); !reflect.DeepEqual(first, again) {
				t.Errorf("repeated run differs:\n%+v\n%+v", first, again)
			}
		})
	}
}
