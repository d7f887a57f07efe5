package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cobra/internal/runner"
	"cobra/internal/spec"
)

func writeRaw(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

// quickScenarios trims the harness scenario set to something a unit test
// can afford: the first Table I design plus a 2-spec slice of the grid.
func quickScenarios(t *testing.T) []Scenario {
	t.Helper()
	all := Scenarios(true)
	grid := all[len(all)-1]
	if grid.Name != "fig10-small" {
		t.Fatalf("last scenario is %s, want fig10-small", grid.Name)
	}
	return []Scenario{
		all[0],
		{Name: grid.Name, Specs: grid.Specs[:2]},
	}
}

// TestBenchPathBitIdentical is the equivalence wall: for every scenario
// spec, the bench path (runner.RunSpecs — what the harness measures) must
// produce counters bit-identical to a direct spec.Exec of the same spec,
// at -j 1 and at -j GOMAXPROCS.  This is what licenses the committed
// BENCH_*.json as a statement about the canonical execution path rather
// than about a private harness fork.
func TestBenchPathBitIdentical(t *testing.T) {
	for _, sc := range quickScenarios(t) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			// Direct path: one spec.Exec per spec.
			var direct []*spec.RunSpec
			want := make([]any, len(sc.Specs))
			for i, s := range sc.Specs {
				c, err := s.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				direct = append(direct, c)
				out, err := spec.Exec(c, spec.Attach{})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = *out.Stats
			}
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				rs, err := runner.RunSpecs(sc.Specs, runner.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(rs) != len(sc.Specs) {
					t.Fatalf("workers=%d: %d results for %d specs", workers, len(rs), len(sc.Specs))
				}
				for i, res := range rs {
					if got := *res.Outcome.Stats; !reflect.DeepEqual(got, want[i]) {
						t.Errorf("workers=%d spec %d (%s on %s): bench-path counters diverge from direct spec.Exec\nbench:  %+v\ndirect: %+v",
							workers, i, direct[i].Design, direct[i].Workload, got, want[i])
					}
				}
			}
		})
	}
}

// TestRunScenarioDeterminism runs one scenario twice through the measuring
// wrapper: deterministic counters must agree across full harness runs.
func TestRunScenarioDeterminism(t *testing.T) {
	sc := quickScenarios(t)[0]
	cfg := Config{Quick: true, Workers: 1, Reps: 2}
	a, err := RunScenario(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Insts != b.Insts || a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts {
		t.Errorf("counters differ across harness runs: %+v vs %+v", a, b)
	}
	if a.Insts == 0 || a.Cycles == 0 {
		t.Errorf("scenario measured nothing: %+v", a)
	}
}

// TestReportRoundTrip pins the schema: write, read back, compare.
func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Schema: Schema, SchemaVersion: SchemaVersion,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: 1, Workers: 1, HostSlowdown: 1.25,
		Scenarios: []ScenarioResult{{Name: "x", Specs: 1, Reps: 1, Insts: 10, Cycles: 20}},
		HotLoop:   []HotLoopResult{{Design: "x", SteadyAllocsPerOp: 0}},
		Runner:    &RunnerResult{GOMAXPROCS: 1, Jobs: 1, SerialWallNS: 5, SpeedupValid: false},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip diverged:\nwrote: %+v\nread:  %+v", r, back)
	}
}

// TestReadFileRejectsForeignSchema ensures stale or foreign JSON fails
// loudly instead of comparing garbage.
func TestReadFileRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	for _, body := range []string{
		`{"schema":"other","schema_version":1}`,
		`{"schema":"cobra-bench","schema_version":99}`,
		`not json`,
	} {
		if err := writeRaw(path, body); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("ReadFile accepted %q", body)
		}
	}
}

// TestCompareGates exercises each regression gate.
func TestCompareGates(t *testing.T) {
	base := func() *Report {
		return &Report{
			Schema: Schema, SchemaVersion: SchemaVersion,
			Scenarios: []ScenarioResult{{
				Name: "s", Insts: 1000, Cycles: 2000, Mispredicts: 30,
				MallocsPerKInst: 1.0, InstsPerSec: 1e6,
			}},
			HotLoop: []HotLoopResult{{
				Design: "d", ComposeAllocs: 200, WarmupAllocs: 250, SteadyAllocsPerOp: 0,
			}},
		}
	}
	if regs := Compare(base(), base(), CompareOptions{}); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %v", regs)
	}

	cases := []struct {
		name   string
		mutate func(r *Report)
		opt    CompareOptions
		want   bool
	}{
		{"cycles changed", func(r *Report) { r.Scenarios[0].Cycles++ }, CompareOptions{}, true},
		{"insts changed", func(r *Report) { r.Scenarios[0].Insts-- }, CompareOptions{}, true},
		{"mispredicts changed", func(r *Report) { r.Scenarios[0].Mispredicts++ }, CompareOptions{}, true},
		{"alloc rate doubled", func(r *Report) { r.Scenarios[0].MallocsPerKInst = 2.0 }, CompareOptions{}, true},
		{"alloc rate within tol", func(r *Report) { r.Scenarios[0].MallocsPerKInst = 1.05 }, CompareOptions{}, false},
		{"scenario dropped", func(r *Report) { r.Scenarios = nil }, CompareOptions{}, true},
		{"steady allocs grew", func(r *Report) { r.HotLoop[0].SteadyAllocsPerOp = 1 }, CompareOptions{}, true},
		{"warmup allocs blew up", func(r *Report) { r.HotLoop[0].WarmupAllocs = 1000 }, CompareOptions{}, true},
		{"timing ignored by default", func(r *Report) { r.Scenarios[0].InstsPerSec = 1 }, CompareOptions{}, false},
		{"timing gated when asked", func(r *Report) { r.Scenarios[0].InstsPerSec = 1 }, CompareOptions{TimingTol: 0.2}, true},
		{"quick mode mismatch", func(r *Report) { r.Quick = true }, CompareOptions{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := base()
			tc.mutate(n)
			regs := Compare(base(), n, tc.opt)
			if got := len(regs) > 0; got != tc.want {
				t.Errorf("regressions=%v, want regression=%v (%v)", regs, tc.want, regs)
			}
		})
	}
}

// TestScaledWallDeltas checks the host-scaled wall deltas -compare prints:
// each report's wall time is divided by its own slowdown, and a report
// without the factor (every one before it was recorded) prints none.
func TestScaledWallDeltas(t *testing.T) {
	rep := func(slow float64, wallMS int64) *Report {
		return &Report{HostSlowdown: slow, Scenarios: []ScenarioResult{{Name: "s", WallNSMedian: wallMS * 1e6}}}
	}
	// Twice the wall on a host twice as slow is no change in the code.
	got := ScaledWallDeltas(rep(1, 100), rep(2, 200))
	if len(got) != 1 || !strings.Contains(got[0], "(+100.0%), host-scaled +0.0%") {
		t.Errorf("scaled deltas = %q", got)
	}
	if got := ScaledWallDeltas(rep(0, 100), rep(2, 200)); got != nil {
		t.Errorf("report without a host factor printed %q", got)
	}
	old, err := ReadFile("../../BENCH_20.json")
	if err != nil {
		t.Fatal(err)
	}
	if old.HostSlowdown != 0 || ScaledWallDeltas(old, rep(1, 1)) != nil {
		t.Errorf("BENCH_20.json predates the host factor, read %v", old.HostSlowdown)
	}
}

// TestHostClock checks that the reference kernel yields a positive median
// slowdown and allocates nothing per run once built.
func TestHostClock(t *testing.T) {
	h := newHostClock()
	if h.slowdown() != 1 {
		t.Errorf("slowdown before any sample = %v, want 1", h.slowdown())
	}
	h.sample()
	if len(h.samples) != hostSamplesPerPoint || h.slowdown() <= 0 {
		t.Errorf("samples %v, slowdown %v", h.samples, h.slowdown())
	}
	if a := testing.AllocsPerRun(2, func() { h.ref.run(1000) }); a != 0 {
		t.Errorf("reference kernel allocates %v per run", a)
	}
}

// TestHotLoopZeroSteadyState is the acceptance number: the committed
// trajectory claims steady-state 0 allocs/op for every Table I design, and
// the harness must keep measuring that on this toolchain.
func TestHotLoopZeroSteadyState(t *testing.T) {
	hl, err := HotLoop(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(hl) != len(spec.PresetNames()) {
		t.Fatalf("%d hot-loop rows, want %d", len(hl), len(spec.PresetNames()))
	}
	for _, h := range hl {
		if h.SteadyAllocsPerOp != 0 {
			t.Errorf("%s: steady-state %.2f allocs/op, want 0", h.Design, h.SteadyAllocsPerOp)
		}
		if h.WarmupAllocs == 0 || h.ComposeAllocs == 0 {
			t.Errorf("%s: implausible zero construction costs: %+v", h.Design, h)
		}
	}
}
