// Package bench is the committed-performance-trajectory harness behind
// cmd/cobra-bench: it runs a fixed scenario set — the Table I designs plus a
// small Fig. 10 grid — through the canonical spec.Exec path (via
// runner.RunSpecs, so what it measures is exactly what cobra-sim and
// cobra-serve execute), records both machine-independent metrics (committed
// instructions, simulated cycles, mispredicts, allocations) and
// machine-dependent ones (wall time, simulated-instructions-per-second)
// into a schema-versioned JSON report, and diffs two reports with
// regression gates (Compare).
//
// The machine-independent metrics are exact: simulated cycle counts are
// deterministic per spec digest (the determinism contract in
// internal/runner), so a committed BENCH_*.json is a cross-machine
// regression oracle, not just a local note.  Wall-clock numbers are
// recorded for trend reading but only gated behind an explicit timing
// tolerance, because shared CI hosts show ±30% run-to-run noise.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"

	"cobra/internal/compose"
	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/workloads"
)

// Schema identifies the report format; SchemaVersion gates Compare.
const (
	Schema        = "cobra-bench"
	SchemaVersion = 1
)

// Config controls one harness run.
type Config struct {
	// Quick shrinks instruction budgets ~10× for smoke runs (CI). Reports
	// from different modes are not comparable; Compare enforces that.
	Quick bool
	// Workers caps runner parallelism (0 = GOMAXPROCS).
	Workers int
	// Reps is the measured repetition count per scenario; the median wall
	// time is reported. 0 defaults to 3 (1 in quick mode). An extra
	// unmeasured warm-up repetition always runs first.
	Reps int
	// Log, when non-nil, receives one progress line per phase.
	Log func(format string, args ...any)
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Quick {
		return 1
	}
	return 3
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Scenario is one named workload of the harness: a set of RunSpecs executed
// as a single runner batch.
type Scenario struct {
	Name  string
	Specs []*spec.RunSpec
}

// Scenarios returns the fixed scenario set: one single-spec scenario per
// Table I design (gcc, the suite's branchiest proxy) and "fig10-small", a
// designs × all-workloads grid at reduced instruction budget — the same
// shape as the committed fig10_small golden.
func Scenarios(quick bool) []Scenario {
	designInsts, designWarmup := uint64(100_000), uint64(10_000)
	gridInsts := uint64(15_000)
	if quick {
		designInsts, designWarmup = 10_000, 2_000
		gridInsts = 2_000
	}
	var out []Scenario
	for _, name := range spec.PresetNames() {
		s := mustPreset(name)
		s.Workload = "gcc"
		s.Insts = designInsts
		s.Warmup = designWarmup
		s.Seed = spec.DefaultSeed
		out = append(out, Scenario{Name: name, Specs: []*spec.RunSpec{s}})
	}
	var grid []*spec.RunSpec
	for _, name := range spec.PresetNames() {
		for _, w := range workloads.Names() {
			s := mustPreset(name)
			s.Workload = w
			s.Insts = gridInsts
			s.Seed = spec.DefaultSeed
			grid = append(grid, s)
		}
	}
	out = append(out, Scenario{Name: "fig10-small", Specs: grid})
	return out
}

func mustPreset(name string) *spec.RunSpec {
	s, err := spec.Preset(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ScenarioResult is the measured record of one scenario.
type ScenarioResult struct {
	Name  string `json:"name"`
	Specs int    `json:"specs"`
	Reps  int    `json:"reps"`

	// Machine-independent (deterministic per spec digest; Compare gates
	// these exactly).
	Insts       uint64 `json:"insts"`
	Cycles      uint64 `json:"cycles"`
	Mispredicts uint64 `json:"mispredicts"`

	// Allocation rate: the fewest mallocs of any measured repetition,
	// counted with the collector off.  The count drifts across Go
	// releases, so Compare gates it with tolerance.
	Mallocs         uint64  `json:"mallocs"`
	MallocsPerKInst float64 `json:"mallocs_per_kinst"`

	// Machine-dependent (recorded always, gated only behind -timing-tol).
	WallNSMedian int64   `json:"wall_ns_median"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	NSPerCycle   float64 `json:"ns_per_cycle"`
}

// HotLoopResult records the per-design allocation budget of the bare
// pipeline hot loop — the numbers TestPhaseAllocBudgets pins in CI.
type HotLoopResult struct {
	Design            string  `json:"design"`
	ComposeAllocs     uint64  `json:"compose_allocs"`
	WarmupAllocs      uint64  `json:"warmup_allocs"` // first 4096 Predict/Commit steps
	SteadyAllocsPerOp float64 `json:"steady_allocs_per_op"`
	NSPerOp           float64 `json:"ns_per_op"` // machine-dependent
}

// RunnerResult records the serial-vs-parallel comparison of the runner
// engine.  On a single-vCPU host the parallel run is the serial schedule
// plus goroutine overhead, so the speedup is omitted (SpeedupValid=false)
// instead of being reported as a misleading ~0.9× "slowdown".
type RunnerResult struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Jobs           int     `json:"jobs"`
	SerialWallNS   int64   `json:"serial_wall_ns"`
	ParallelWallNS int64   `json:"parallel_wall_ns,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	SpeedupValid   bool    `json:"speedup_valid"`
	Note           string  `json:"note,omitempty"`
}

// Report is the schema-versioned output of one harness run.
type Report struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	Quick         bool   `json:"quick"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Workers       int    `json:"workers"`
	// HostSlowdown is the median slowdown of a fixed reference kernel
	// timed between scenarios (see calibrate.go): 1 is the calibration
	// host at full speed, 2 half that.  Reports written before it was
	// recorded read 0, and their wall times compare unscaled.
	HostSlowdown float64 `json:"host_slowdown,omitempty"`

	Scenarios []ScenarioResult `json:"scenarios"`
	HotLoop   []HotLoopResult  `json:"hot_loop"`
	Runner    *RunnerResult    `json:"runner,omitempty"`
}

// Run executes the full harness: scenarios, hot-loop budgets, and the
// runner comparison.
func Run(cfg Config) (*Report, error) {
	r := &Report{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Quick:         cfg.Quick,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       cfg.Workers,
	}
	host := newHostClock()
	host.sample()
	for _, sc := range Scenarios(cfg.Quick) {
		cfg.logf("scenario %s (%d specs, %d reps)", sc.Name, len(sc.Specs), cfg.reps())
		res, err := RunScenario(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		r.Scenarios = append(r.Scenarios, res)
		host.sample()
	}
	r.HostSlowdown = host.slowdown()
	cfg.logf("host slowdown %.2f", r.HostSlowdown)
	cfg.logf("hot-loop budgets")
	hl, err := HotLoop(cfg)
	if err != nil {
		return nil, err
	}
	r.HotLoop = hl
	cfg.logf("runner serial/parallel")
	rr, err := RunnerComparison(cfg)
	if err != nil {
		return nil, err
	}
	r.Runner = rr
	return r, nil
}

// RunScenario measures one scenario: an unmeasured warm-up repetition (to
// populate the workload memo and geometry cache), then cfg.reps() measured
// repetitions whose deterministic counters must agree exactly.  It reports
// the median wall time and the fewest mallocs of any repetition.
//
// The collector is off from the warm-up to the last repetition (a
// fig10-small repetition allocates about 10 MB, so the heap stays small).
// A GC empties every sync.Pool, and the next Get allocates the pool's
// per-P array and a fresh object; it also wakes runtime cleanup work that
// allocates on its own.  Either lands in whichever repetition follows the
// GC, so with the collector on the fewest mallocs still moved from run to
// run.  Two sources remain, and the minimum drops the first: process-start
// work on another P can add a few allocations to an early repetition, and
// with more than one worker the runtime may allocate a goroutine
// descriptor instead of reusing a dead one, so a multi-spec scenario can
// read one or two more at -j > 1 (it is exact at -j 1).
func RunScenario(sc Scenario, cfg Config) (ScenarioResult, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opt := runner.Options{Workers: cfg.Workers}
	exec := func() (insts, cycles, misp uint64, wall time.Duration, mallocs uint64, err error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		rs, err := runner.RunSpecs(sc.Specs, opt)
		wall = time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		mallocs = m1.Mallocs - m0.Mallocs
		for _, res := range rs {
			s := res.Outcome.Stats
			insts += s.Instructions
			cycles += s.Cycles
			misp += s.Mispredicts
		}
		return insts, cycles, misp, wall, mallocs, nil
	}

	// Warm-up repetition: first-touch program compilation and geometry
	// memoization are one-time process costs, not scenario costs.
	if _, _, _, _, _, err := exec(); err != nil {
		return ScenarioResult{}, err
	}

	reps := cfg.reps()
	out := ScenarioResult{Name: sc.Name, Specs: len(sc.Specs), Reps: reps}
	walls := make([]time.Duration, 0, reps)
	allocs := make([]uint64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		insts, cycles, misp, wall, mallocs, err := exec()
		if err != nil {
			return ScenarioResult{}, err
		}
		if rep == 0 {
			out.Insts, out.Cycles, out.Mispredicts = insts, cycles, misp
		} else if insts != out.Insts || cycles != out.Cycles || misp != out.Mispredicts {
			return ScenarioResult{}, fmt.Errorf(
				"determinism violation: rep %d measured insts/cycles/misp %d/%d/%d, rep 0 measured %d/%d/%d",
				rep, insts, cycles, misp, out.Insts, out.Cycles, out.Mispredicts)
		}
		walls = append(walls, wall)
		allocs = append(allocs, mallocs)
	}
	wall := median(walls)
	out.WallNSMedian = wall.Nanoseconds()
	out.Mallocs = slices.Min(allocs)
	if out.Insts > 0 {
		out.MallocsPerKInst = float64(out.Mallocs) / float64(out.Insts) * 1000
		out.InstsPerSec = float64(out.Insts) / wall.Seconds()
	}
	if out.Cycles > 0 {
		out.NSPerCycle = float64(wall.Nanoseconds()) / float64(out.Cycles)
	}
	return out, nil
}

// HotLoop measures the per-phase allocation budgets of the bare
// Predict/Commit loop for every Table I design.
func HotLoop(cfg Config) ([]HotLoopResult, error) {
	var out []HotLoopResult
	for _, name := range spec.PresetNames() {
		s := mustPreset(name)
		// The hot loop drives Predict/Commit directly and never touches a
		// workload, but Canonical requires one to resolve.
		s.Workload = "gcc"
		c, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		var composeAllocs uint64
		p, err := buildPipeline(c, &composeAllocs)
		if err != nil {
			return nil, err
		}
		cycle := uint64(0)
		step := func() {
			e, _ := p.Predict(cycle, 0x1000+(cycle%64)*16)
			if e != nil {
				p.Commit(cycle, e)
			}
			cycle++
		}
		warmAllocs := allocsOf(func() {
			for i := 0; i < 4096; i++ {
				step()
			}
		})
		steady := testing.AllocsPerRun(2000, step)
		ops := 20_000
		if cfg.Quick {
			ops = 4_000
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			step()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		out = append(out, HotLoopResult{
			Design:            name,
			ComposeAllocs:     composeAllocs,
			WarmupAllocs:      warmAllocs,
			SteadyAllocsPerOp: steady,
			NSPerOp:           ns,
		})
	}
	return out, nil
}

// buildPipeline composes the bare pipeline a canonical spec describes
// (without the host core), recording the construction allocation count.
func buildPipeline(c *spec.RunSpec, allocs *uint64) (*compose.Pipeline, error) {
	opt, err := c.Pipeline.Options()
	if err != nil {
		return nil, err
	}
	hw, err := c.ResolveCore()
	if err != nil {
		return nil, err
	}
	topo, err := compose.ParseTopologyCached(c.Topology)
	if err != nil {
		return nil, err
	}
	var p *compose.Pipeline
	*allocs = allocsOf(func() {
		p, err = compose.New(hw.Fetch, topo, opt)
	})
	return p, err
}

// RunnerComparison times the fig10-small batch on the serial path and, when
// the host has more than one CPU, on the parallel path.
func RunnerComparison(cfg Config) (*RunnerResult, error) {
	sc := Scenarios(cfg.Quick)
	grid := sc[len(sc)-1] // fig10-small
	procs := runtime.GOMAXPROCS(0)
	out := &RunnerResult{GOMAXPROCS: procs, Jobs: len(grid.Specs)}
	timeBatch := func(workers int) (time.Duration, error) {
		t0 := time.Now()
		_, err := runner.RunSpecs(grid.Specs, runner.Options{Workers: workers})
		return time.Since(t0), err
	}
	if _, err := timeBatch(1); err != nil { // warm-up
		return nil, err
	}
	serial, err := timeBatch(1)
	if err != nil {
		return nil, err
	}
	out.SerialWallNS = serial.Nanoseconds()
	if procs == 1 {
		out.SpeedupValid = false
		out.Note = "GOMAXPROCS=1: parallel wall time omitted — the parallel schedule degenerates " +
			"to serial-plus-overhead on this host and its ratio is not a speedup measurement"
		return out, nil
	}
	par, err := timeBatch(procs)
	if err != nil {
		return nil, err
	}
	out.ParallelWallNS = par.Nanoseconds()
	if par > 0 {
		out.Speedup = serial.Seconds() / par.Seconds()
	}
	out.SpeedupValid = true
	return out, nil
}

// allocsOf measures the heap allocations of one call to f, pinned to a
// single P the way testing.AllocsPerRun is.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func median(xs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// WriteFile writes the report as stable, indented JSON.
func WriteFile(path string, r *Report) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadFile loads a previously written report, validating the schema tag.
func ReadFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema version %d, want %d", path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}
