package cobra

// Integration tests for the observability layer: the zero-cost-when-disabled
// contract, per-PC attribution against the run counters, and the exporters
// driven by a real simulation.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"cobra/internal/interval"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

const obsTestInsts = 60_000

// TestObserverZeroCost runs the same simulation bare and fully instrumented
// (tracer + profile + metrics); every counter must be bit-identical — the
// observability layer observes, it never steers.
func TestObserverZeroCost(t *testing.T) {
	rc := RunConfig{Design: TAGEL(), Workload: "gcc", MaxInsts: obsTestInsts}
	bare, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Observer = NewTracer(1 << 10)
	rc.Profile = NewBranchProfile()
	rc.Metrics = NewMetrics()
	instrumented, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("instrumentation changed results:\nbare:         %+v\ninstrumented: %+v", bare, instrumented)
	}
}

// TestH2PSumInvariant is the acceptance criterion: per-PC mispredict counts
// sum to stats.Sim.Mispredicts on a Table I design.
func TestH2PSumInvariant(t *testing.T) {
	for _, d := range Designs() {
		prof := NewBranchProfile()
		res, err := Run(RunConfig{Design: d, Workload: "leela", MaxInsts: obsTestInsts, Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, st := range prof.Top(0) {
			sum += st.Misp
		}
		if sum != res.Mispredicts || prof.TotalMispredicts() != res.Mispredicts {
			t.Errorf("%s: per-PC sum %d / profile %d != counter %d",
				d.Name, sum, prof.TotalMispredicts(), res.Mispredicts)
		}
		if cfis := res.Branches + res.Jumps + res.IndirectJumps; prof.TotalExecs() != cfis {
			t.Errorf("%s: profile execs %d != committed CFIs %d", d.Name, prof.TotalExecs(), cfis)
		}
	}
}

// TestEventStreamFromSim checks the traced stream of a real run: events
// arrive, cycles are monotone, the five interface kinds all fire, and both
// exporters accept the stream.
func TestEventStreamFromSim(t *testing.T) {
	tr := NewTracer(1 << 14)
	if _, err := Run(RunConfig{Design: B2(), Workload: "mcf", MaxInsts: obsTestInsts, Observer: tr}); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events traced")
	}
	seen := map[string]bool{}
	var prev uint64
	for i := range evs {
		if evs[i].Cycle < prev {
			t.Fatalf("event %d: cycle went backwards (%d < %d)", i, evs[i].Cycle, prev)
		}
		prev = evs[i].Cycle
		seen[evs[i].Kind.String()] = true
	}
	for _, kind := range []string{"predict", "fire", "mispredict", "repair", "update", "redirect", "squash"} {
		if !seen[kind] {
			t.Errorf("no %q events in a %d-instruction run", kind, obsTestInsts)
		}
	}

	var bin bytes.Buffer
	if err := WriteBinaryEvents(&bin, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryEvents(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, evs) {
		t.Fatal("binary round trip of a sim stream diverged")
	}

	var cj bytes.Buffer
	if err := WriteChromeTrace(&cj, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(cj.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export of a sim stream is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(evs) {
		t.Fatalf("chrome export lost events: %d < %d", len(doc.TraceEvents), len(evs))
	}
}

// allocsOf measures the heap allocations performed by one call to f,
// pinned to a single P the way testing.AllocsPerRun is.  Used for the
// one-shot phases (compose, arena warm-up) that AllocsPerRun's own warm-up
// call would consume.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestPhaseAllocBudgets is the allocation-budget wall, replacing the old
// single pinned-at-20 nil-observer baseline (the per-stage packet clones and
// per-signal Query/Event escapes it pinned are gone).  Each simulation phase
// gets its own machine-independent budget:
//
//   - compose: building a Table I pipeline is construction, budgeted but not
//     hot (~160-240 allocs);
//   - warm-up: the first pass through the 32-entry history-file ring grows
//     the per-entry arenas (snapshots, metadata, stage buffers) exactly once
//     (~230-260 allocs for 4096 steps);
//   - steady state: the warmed Predict/Commit loop must allocate NOTHING —
//     zero is exact, enforced by testing.AllocsPerRun;
//   - steady-state simulate: a full uarch run (fetch buffer, packets, slot
//     vectors, pending entries all pooled) stays under a fraction of an
//     allocation per instruction once the workload program is memoized.
//
// A single new allocation per op would dwarf the 2% observer overhead
// budget, so these counts are the CI-enforceable form of the timing guard;
// see DESIGN.md §9/§12, BenchmarkPipelineNoObserver, and cmd/cobra-bench
// (which records the same numbers in BENCH_*.json).
func TestPhaseAllocBudgets(t *testing.T) {
	EnableFlightRecorder(0) // the budgets must hold with the recorder armed
	const (
		composeBudget = 512 // allocs to build one Table I design
		warmupBudget  = 768 // allocs for the first 4096 Predict/Commit steps
		warmupSteps   = 4096
	)
	for _, d := range Designs() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			if got := allocsOf(func() {
				if _, err := d.Build(); err != nil {
					t.Fatal(err)
				}
			}); got > composeBudget {
				t.Errorf("compose: %d allocs, budget %d", got, composeBudget)
			}
			p, err := d.Build()
			if err != nil {
				t.Fatal(err)
			}
			cycle := uint64(0)
			step := func() {
				e, _ := p.Predict(cycle, 0x1000+(cycle%64)*16)
				if e != nil {
					p.Commit(cycle, e)
				}
				cycle++
			}
			if got := allocsOf(func() {
				for i := 0; i < warmupSteps; i++ {
					step()
				}
			}); got > warmupBudget {
				t.Errorf("warmup: %d allocs for %d steps, budget %d", got, warmupSteps, warmupBudget)
			}
			if avg := testing.AllocsPerRun(2000, step); avg != 0 {
				t.Errorf("steady state: %.2f allocs per Predict/Commit op, want 0", avg)
			}
		})
	}
}

// TestSimulateAllocBudget pins the steady-state allocation rate of a full
// out-of-order simulation: with the workload program memoized, a 50k-inst
// run must stay under 0.2 allocs per committed instruction (measured ~0.014;
// the seed revision sat near 4.4).
func TestSimulateAllocBudget(t *testing.T) {
	EnableFlightRecorder(0) // the budget must hold with the recorder armed
	const insts = 50_000
	rc := RunConfig{Design: TAGEL(), Workload: "gcc", MaxInsts: insts}
	if _, err := Run(rc); err != nil { // warm the workload memo
		t.Fatal(err)
	}
	got := allocsOf(func() {
		if _, err := Run(rc); err != nil {
			t.Fatal(err)
		}
	})
	if perInst := float64(got) / insts; perInst > 0.2 {
		t.Errorf("steady-state simulate: %d allocs over %d insts = %.3f/inst, budget 0.2",
			got, insts, perInst)
	}
}

// TestIntervalAllocBudget extends the phase-budget wall to the interval
// recorder: once warmed (provider table populated, H2P set membership
// established, every ring slot's Providers array grown), the sampling path —
// per-flush Tick, window closes included, plus per-mispredict H2P updates —
// must allocate NOTHING.  Zero is exact, like the steady-state Predict/Commit
// budget above: one new allocation per op would dwarf the 1% wall-time
// budget TestIntervalOverheadGuard enforces.
func TestIntervalAllocBudget(t *testing.T) {
	EnableFlightRecorder(0) // the budget must hold with the recorder armed
	r := interval.NewRecorder(1000, nil)
	s := stats.NewSim()
	var cycle uint64
	step := func() {
		cycle += 200
		s.Instructions += 100
		s.Branches += 20
		s.Mispredicts += 2
		s.AddProviderHit("TAGE3")
		s.AddProviderHit("BIM2")
		s.AddProviderMiss("TAGE3")
		r.Mispredict(0x1000 + (cycle/200%64)*4) // 64 recurring branch PCs
		r.Tick(cycle, &s, s.Instructions/10, s.Instructions/20, s.Instructions/40)
	}
	// Warm until the ring has wrapped: every slot has hosted a window with
	// providers, so later closes reuse backing arrays instead of growing them.
	for i := 0; i < (4096+64)*10; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("steady-state interval sampling: %.2f allocs per flush, want exactly 0", avg)
	}
	// A full simulation with sampling on stays inside the same per-inst
	// budget TestSimulateAllocBudget enforces bare: recorder construction is
	// the only addition, and it is per-run, not per-instruction.
	sp, err := spec.Preset("tage-l")
	if err != nil {
		t.Fatal(err)
	}
	sp.Workload = "gcc"
	sp.Insts = 50_000
	sp.Observe.IntervalInsts = 10_000
	if _, err := RunSpec(sp); err != nil { // warm the workload + geometry memos
		t.Fatal(err)
	}
	got := allocsOf(func() {
		if _, err := RunSpec(sp); err != nil {
			t.Fatal(err)
		}
	})
	if perInst := float64(got) / float64(sp.Insts); perInst > 0.2 {
		t.Errorf("simulate with intervals: %d allocs over %d insts = %.3f/inst, budget 0.2",
			got, sp.Insts, perInst)
	}
}

// TestIntervalOverheadGuard is the timing half of the interval budget: with
// sampling enabled at the default window, a full simulation must cost no
// more than 1% extra wall time over the same run bare.  Env-gated like
// TestObserverOverheadGuard because wall-clock ratios are only meaningful on
// quiet, comparable hardware: set COBRA_BENCH_GUARD=1 to enforce.
func TestIntervalOverheadGuard(t *testing.T) {
	if os.Getenv("COBRA_BENCH_GUARD") == "" {
		t.Skip("set COBRA_BENCH_GUARD=1 to run the timing guard")
	}
	mk := func(every uint64) *Spec {
		sp, err := spec.Preset("tage-l")
		if err != nil {
			t.Fatal(err)
		}
		sp.Workload = "gcc"
		sp.Insts = 200_000
		sp.Observe.IntervalInsts = every
		return sp
	}
	minNs := func(sp *Spec) float64 {
		if _, err := RunSpec(sp); err != nil { // warm the memos
			t.Fatal(err)
		}
		best := math.MaxFloat64
		for i := 0; i < 5; i++ { // min-of-5 damps scheduler noise
			ns := float64(testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if _, err := RunSpec(sp); err != nil {
						b.Fatal(err)
					}
				}
			}).NsPerOp())
			if ns < best {
				best = ns
			}
		}
		return best
	}
	bare := minNs(mk(0))
	sampled := minNs(mk(interval.DefaultInsts))
	overhead := (sampled/bare - 1) * 100
	t.Logf("bare %.0f ns/op, sampled %.0f ns/op: %.2f%% interval-sampling overhead", bare, sampled, overhead)
	if overhead > 1.0 {
		t.Errorf("interval sampling costs %.2f%% wall time, budget 1%%", overhead)
	}
}
