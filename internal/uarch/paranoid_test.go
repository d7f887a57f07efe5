package uarch

import (
	"reflect"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/interval"
	"cobra/internal/program"
	"cobra/internal/stats"
	"cobra/internal/workloads"
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
	noViolations(t, bp)
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
				noViolations(t, bp)
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

// TestInflightRingEdgeCases runs the in-flight ring at its edges with the
// invariant checker armed, on the mispredict-heavy mcf proxy: the in-order
// host, whose 8-entry ROB and 8-entry fetch buffer fill a 16-slot ring
// exactly; a ROB size that is not a power of two (100 + 16 in 128 slots);
// and a fetch buffer that holds a single fetch packet.  A probe first steps
// each host until resolving branches have flushed records from both the ROB
// and the fetch buffer.  Each measured run must be clean and keep the
// counters the core had while the fetch buffer and the ROB were separate
// arrays.
func TestInflightRingEdgeCases(t *testing.T) {
	prog, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		name string
		cfg  func() Config
		ring int
		want []string
	}{
		{"inorder", InOrderConfig, 16, []string{
			"inorder b2 cycles=183563 insts=20000 branches=2444 misp=215 dir=215 tgt=0 bubbles=1089 hit.BIM2=2022 hit.GTAG3=422 miss.BIM2=129 miss.GTAG3=86",
			"inorder tage-l cycles=183746 insts=20000 branches=2444 misp=274 dir=274 tgt=0 bubbles=1387 hit.BIM2=961 hit.LOOP3=385 hit.TAGE3=1098 miss.BIM2=88 miss.LOOP3=6 miss.TAGE3=180",
		}},
		{"rob100", func() Config { c := DefaultConfig(); c.ROBEntries = 100; return c }, 128, []string{
			"rob100 b2 cycles=32811 insts=20001 branches=2444 misp=222 dir=222 tgt=0 bubbles=15877 hit.BIM2=2008 hit.GTAG3=436 miss.BIM2=133 miss.GTAG3=89",
			"rob100 tage-l cycles=33682 insts=20001 branches=2444 misp=295 dir=295 tgt=0 bubbles=14668 hit.BIM2=888 hit.LOOP3=275 hit.TAGE3=1281 miss.BIM2=92 miss.LOOP3=6 miss.TAGE3=197",
		}},
		{"fb-one-packet", func() Config { c := DefaultConfig(); c.FetchBufferCap = c.Fetch.FetchWidth; return c }, 256, []string{
			"fb-one-packet b2 cycles=32811 insts=20001 branches=2444 misp=222 dir=222 tgt=0 bubbles=16551 hit.BIM2=2008 hit.GTAG3=436 miss.BIM2=133 miss.GTAG3=89",
			"fb-one-packet tage-l cycles=33654 insts=20001 branches=2444 misp=294 dir=294 tgt=0 bubbles=16041 hit.BIM2=891 hit.LOOP3=275 hit.TAGE3=1278 miss.BIM2=93 miss.LOOP3=6 miss.TAGE3=195",
		}},
	}
	for _, h := range hosts {
		for di, d := range pinDesigns {
			t.Run(h.name+"/"+d.name, func(t *testing.T) {
				cfg := h.cfg()
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				opt := d.opt
				opt.Paranoid = true
				bp := mkPipeline(t, d.topo, opt)
				probe := NewCore(cfg, bp, prog, 42)
				if len(probe.ring) != h.ring {
					t.Fatalf("ring has %d slots, want %d", len(probe.ring), h.ring)
				}
				if rob, fb := flushCuts(probe, 20000); rob == 0 || fb == 0 {
					t.Fatalf("flushes cut %d ROB tails and %d fetch buffers, want both", rob, fb)
				}
				noViolations(t, bp)
				bp = mkPipeline(t, d.topo, opt)
				s := NewCore(cfg, bp, prog, 42).Run(20000)
				noViolations(t, bp)
				if got := counterLine(h.name, d.name, s); got != h.want[di] {
					t.Errorf("counters moved:\n got %s\nwant %s", got, h.want[di])
				}
			})
		}
	}
}

// flushCuts steps c for up to maxCycles cycles, or until both have been
// seen, counting the cycles in which records left the ROB tail or the
// fetch buffer without being dispatched or committed: a resolving branch
// flushed them.  Every seq is delivered once, so a record is gone when its
// seq no longer appears in the ring.  Commit takes the ROB's oldest records
// and a flush its youngest, which is how the two are told apart.
func flushCuts(c *Core, maxCycles int) (rob, fb int) {
	live := map[uint64]bool{}
	var robSeqs, fbSeqs []uint64
	for n := 0; n < maxCycles && (rob == 0 || fb == 0); n++ {
		robSeqs, fbSeqs = robSeqs[:0], fbSeqs[:0]
		for i := 0; i < c.robCount+c.fbCount; i++ {
			if seq := c.ring[c.robIdx(i)].seq; i < c.robCount {
				robSeqs = append(robSeqs, seq)
			} else {
				fbSeqs = append(fbSeqs, seq)
			}
		}
		c.step()
		clear(live)
		for i := 0; i < c.robCount+c.fbCount; i++ {
			live[c.ring[c.robIdx(i)].seq] = true
		}
		for _, seq := range fbSeqs {
			if !live[seq] {
				fb++
				break
			}
		}
		// A flushed ROB record is younger than a surviving one: the
		// resolving branch stays.
		survivor := false
		for _, seq := range robSeqs {
			if live[seq] {
				survivor = true
			} else if survivor {
				rob++
				break
			}
		}
	}
	return rob, fb
}

// noViolations fails the test if bp's invariant checker recorded anything.
func noViolations(t *testing.T, bp *compose.Pipeline) {
	t.Helper()
	if n := bp.ViolationCount(); n != 0 {
		for _, v := range bp.Violations()[:min(3, n)] {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d invariant violations", n)
	}
}
