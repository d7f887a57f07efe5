// Package workloads provides the benchmark suite: ten SPECint17 *proxies*
// plus Dhrystone and CoreMark proxies.
//
// Substitution rationale (see DESIGN.md): the paper runs SPEC CPU2017
// binaries with reference inputs on an FPGA-simulated BOOM.  Neither is
// available, and a branch-predictor study fundamentally needs branch
// *populations* with realistic structure rather than SPEC semantics.  Each
// proxy is a closed synthetic program whose control-flow population —
// biased/easy branches, hard data-dependent branches, global-pattern and
// history-correlated branches, local-periodic branches, fixed-trip loops,
// short hammocks, indirect switches, call trees — and memory working set
// are parameterized per benchmark, following the published hardness
// ordering of SPECint17 branch behaviour (mcf/leela/deepsjeng/xz hard;
// x264/xalancbmk/perlbench easy; gcc/omnetpp/exchange2 mid).
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"cobra/internal/bitutil"
	"cobra/internal/isa"
	"cobra/internal/program"
)

// Profile parameterizes a synthetic benchmark's population.
type Profile struct {
	Name string
	Seed uint64

	Funcs         int // leaf functions called from the main loop
	BlocksPerFunc int
	OpsPerBlock   int

	LoadFrac, StoreFrac, FPFrac float64
	WorkingSet                  uint64 // bytes; drives D-cache miss rate

	// Branch-population weights (relative; sampled per block).
	WEasy    float64 // near-constant direction (P = .002 / .998)
	WBiased  float64 // moderately biased (P ~ .06 / .94)
	WHard    float64 // data-dependent, barely biased (P in [.15, .3] band)
	WPattern float64 // short repeating global pattern
	WCorr    float64 // correlated with outcome k branches ago
	WLocal   float64 // local-periodic (phase invisible globally)

	BranchDensity    float64 // probability a block ends in a conditional branch
	HammockFrac      float64 // fraction of conditional branches that are short forward hammocks
	InnerLoopFrac    float64 // probability a block contains a fixed-trip inner loop
	TripMin, TripMax int

	IndirectFanout int // switch targets in the main loop (0 = none)
}

type genState struct {
	p   Profile
	b   *program.Builder
	rng uint64
}

func (g *genState) rand() uint64 {
	x := g.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (g *genState) randF() float64 { return float64(g.rand()>>11) / float64(1<<53) }

func (g *genState) randN(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + int(g.rand()%uint64(hi-lo+1))
}

func (g *genState) mem() program.MemBehavior {
	if g.randF() < 0.5 {
		return &program.StrideMem{
			Base:   0x1000_0000 + (g.rand() & 0xFFFF00),
			Stride: 8,
			Span:   4096,
		}
	}
	ws := g.p.WorkingSet
	if ws == 0 {
		ws = 1 << 14
	}
	return &program.RandMem{Base: 0x2000_0000, Size: ws}
}

// sampleDir draws a conditional-branch behaviour from the profile weights.
func (g *genState) sampleDir() program.DirBehavior {
	total := g.p.WEasy + g.p.WBiased + g.p.WHard + g.p.WPattern + g.p.WCorr + g.p.WLocal
	if total == 0 {
		return &program.BiasedDir{P: 0.05}
	}
	r := g.randF() * total
	switch {
	case r < g.p.WEasy:
		if g.rand()&1 == 0 {
			return &program.BiasedDir{P: 0.002}
		}
		return &program.BiasedDir{P: 0.998}
	case r < g.p.WEasy+g.p.WBiased:
		if g.rand()&1 == 0 {
			return &program.BiasedDir{P: 0.04 + 0.05*g.randF()}
		}
		return &program.BiasedDir{P: 0.91 + 0.05*g.randF()}
	case r < g.p.WEasy+g.p.WBiased+g.p.WHard:
		p := 0.15 + 0.15*g.randF()
		if g.rand()&1 == 0 {
			p = 1 - p
		}
		return &program.BiasedDir{P: p}
	case r < g.p.WEasy+g.p.WBiased+g.p.WHard+g.p.WPattern:
		// Real periodic branches skew toward a majority direction: a period
		// 4-9 pattern with 1-2 minority positions.  A bimodal predictor gets
		// the majority right (misses 1-2/n); history predictors learn it
		// fully.
		n := g.randN(4, 9)
		maj := g.rand()&1 == 0
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = maj
		}
		bits[int(g.rand())&0x7fffffff%n] = !maj
		if n >= 7 && g.rand()&1 == 0 {
			bits[int(g.rand())&0x7fffffff%n] = !maj
		}
		return &program.PatternDir{Bits: bits}
	case r < g.p.WEasy+g.p.WBiased+g.p.WHard+g.p.WPattern+g.p.WCorr:
		return &program.CorrDir{
			Depth:  uint(g.randN(1, 8)),
			Invert: g.rand()&1 == 0,
			Noise:  0.01,
		}
	default:
		return &program.LocalPeriodicDir{Period: g.randN(3, 17)}
	}
}

// block emits one basic block: ops, an optional inner loop, an optional
// hammock, and an optional block-ending conditional branch over a small tail.
func (g *genState) block() {
	b := g.b
	b.Ops(g.p.OpsPerBlock, g.p.LoadFrac, g.p.StoreFrac, g.p.FPFrac, g.mem)
	if g.randF() < g.p.InnerLoopFrac {
		trip := g.randN(g.p.TripMin, g.p.TripMax)
		b.Loop(trip, func() {
			b.Ops(g.randN(3, 7), g.p.LoadFrac, 0, 0, g.mem)
		})
	}
	if g.randF() < g.p.BranchDensity {
		if g.randF() < g.p.HammockFrac {
			// Short forward hammock (SFB candidate).
			b.Hammock(0.1+0.3*g.randF(), g.randN(1, 4), program.ClassALU)
			return
		}
		fx := b.ForwardBranch(g.sampleDir())
		b.Ops(g.randN(2, 6), g.p.LoadFrac, g.p.StoreFrac, 0, g.mem)
		fx.Bind()
		b.Ops(1, 0, 0, 0, nil)
	}
}

// Programs built from a profile are immutable after sealing (all behaviour
// state lives in per-oracle State slots), so one instance can serve every
// simulation — including concurrent ones — that wants the same workload.
// The cache below memoizes builds per (profile, geometry); only the
// interpreted-ISA kernels are excluded, because their behaviours share a
// mutable Machine and each run needs a fresh compile.
var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*program.Program{}
)

type cacheKey struct {
	profile   Profile // zero Profile except Name for the fixed proxies
	instBytes int
}

// memo returns the cached program for key, building it on first use.  The
// build runs under the lock: builds are microseconds against simulations
// that are seconds, and single-flight construction keeps the cache simple.
func memo(key cacheKey, build func() *program.Program) *program.Program {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if prog, ok := cache[key]; ok {
		return prog
	}
	prog := build()
	if prog.SingleUse {
		panic(fmt.Sprintf("workloads: %s is single-use and must not be cached", prog.Name))
	}
	cache[key] = prog
	return prog
}

// Build generates the closed program for a profile (4-byte instructions).
func Build(p Profile) *program.Program { return BuildWithGeometry(p, 4) }

// BuildWithGeometry returns the profile's program at a chosen instruction
// width (2 for RVC-style 8-wide fetch experiments, 4 for the default
// geometry), memoized per (profile, width).  The control-flow structure and
// dynamic behaviour are identical across widths; only addresses scale.
func BuildWithGeometry(p Profile, instBytes int) *program.Program {
	return memo(cacheKey{p, instBytes}, func() *program.Program {
		return buildWithGeometry(p, instBytes)
	})
}

func buildWithGeometry(p Profile, instBytes int) *program.Program {
	g := &genState{p: p, rng: p.Seed ^ 0xC0B4A}
	if g.rng == 0 {
		g.rng = 1
	}
	g.b = program.NewBuilder(p.Name, 0x10000, instBytes, p.Seed)
	b := g.b

	// Layout: entry jumps over the function bodies to the main loop.
	toMain := b.ForwardJump()
	funcs := make([]uint64, 0, p.Funcs)
	for f := 0; f < p.Funcs; f++ {
		funcs = append(funcs, b.Func(func() {
			for blk := 0; blk < p.BlocksPerFunc; blk++ {
				g.block()
			}
		}))
	}
	toMain.Bind()

	// Main loop: call every function, then optionally dispatch through an
	// indirect switch.
	var cases []uint64
	var caseExits []*program.Fixup
	if p.IndirectFanout > 1 {
		skip := b.ForwardJump()
		for i := 0; i < p.IndirectFanout; i++ {
			cases = append(cases, b.PC())
			b.Ops(g.randN(2, 5), p.LoadFrac, 0, 0, g.mem)
			caseExits = append(caseExits, b.ForwardJump())
		}
		skip.Bind()
	}
	head := b.PC()
	for _, fn := range funcs {
		b.Call(fn)
		b.Ops(1, 0, 0, 0, nil)
	}
	if len(cases) > 0 {
		b.Indirect(&program.WeightedTgt{Targets: cases, P0: 0.5})
		// Cases rejoin here.
		for _, fx := range caseExits {
			fx.Bind()
		}
		b.Ops(1, 0, 0, 0, nil)
	}
	b.Jump(head)

	prog, err := b.Seal()
	if err != nil {
		panic(fmt.Sprintf("workloads: %s does not seal: %v", p.Name, err))
	}
	return prog
}

// profiles is the SPECint17 proxy suite, ordered as the paper's Fig. 10.
var profiles = []Profile{
	{
		Name: "perlbench", Seed: 101,
		Funcs: 10, BlocksPerFunc: 12, OpsPerBlock: 5,
		LoadFrac: 0.22, StoreFrac: 0.10, FPFrac: 0.0, WorkingSet: 1 << 16,
		WEasy: 6, WBiased: 0.5, WHard: 0.25, WPattern: 1.5, WCorr: 1.5, WLocal: 0.8,
		BranchDensity: 0.75, HammockFrac: 0.08, InnerLoopFrac: 0.15,
		TripMin: 8, TripMax: 24, IndirectFanout: 6,
	},
	{
		Name: "gcc", Seed: 102,
		Funcs: 18, BlocksPerFunc: 18, OpsPerBlock: 4,
		LoadFrac: 0.25, StoreFrac: 0.12, FPFrac: 0.0, WorkingSet: 1 << 20,
		WEasy: 5.5, WBiased: 0.7, WHard: 0.55, WPattern: 1.5, WCorr: 1.8, WLocal: 0.8,
		BranchDensity: 0.85, HammockFrac: 0.08, InnerLoopFrac: 0.1,
		TripMin: 8, TripMax: 16, IndirectFanout: 8,
	},
	{
		Name: "mcf", Seed: 103,
		Funcs: 4, BlocksPerFunc: 8, OpsPerBlock: 4,
		LoadFrac: 0.35, StoreFrac: 0.08, FPFrac: 0.0, WorkingSet: 1 << 24,
		WEasy: 4, WBiased: 1.0, WHard: 1.6, WPattern: 0.5, WCorr: 0.8, WLocal: 0.4,
		BranchDensity: 0.9, HammockFrac: 0.08, InnerLoopFrac: 0.05,
		TripMin: 8, TripMax: 16, IndirectFanout: 0,
	},
	{
		Name: "omnetpp", Seed: 104,
		Funcs: 12, BlocksPerFunc: 14, OpsPerBlock: 5,
		LoadFrac: 0.28, StoreFrac: 0.12, FPFrac: 0.0, WorkingSet: 1 << 22,
		WEasy: 5, WBiased: 0.8, WHard: 0.55, WPattern: 1.2, WCorr: 1.5, WLocal: 1.2,
		BranchDensity: 0.8, HammockFrac: 0.08, InnerLoopFrac: 0.1,
		TripMin: 8, TripMax: 18, IndirectFanout: 10,
	},
	{
		Name: "xalancbmk", Seed: 105,
		Funcs: 14, BlocksPerFunc: 16, OpsPerBlock: 6,
		LoadFrac: 0.25, StoreFrac: 0.10, FPFrac: 0.0, WorkingSet: 1 << 19,
		WEasy: 6, WBiased: 0.5, WHard: 0.3, WPattern: 1.5, WCorr: 1.2, WLocal: 0.8,
		BranchDensity: 0.7, HammockFrac: 0.1, InnerLoopFrac: 0.2,
		TripMin: 8, TripMax: 20, IndirectFanout: 6,
	},
	{
		Name: "x264", Seed: 106,
		Funcs: 5, BlocksPerFunc: 8, OpsPerBlock: 9,
		LoadFrac: 0.30, StoreFrac: 0.15, FPFrac: 0.05, WorkingSet: 1 << 18,
		WEasy: 7, WBiased: 0.3, WHard: 0.12, WPattern: 1, WCorr: 0.5, WLocal: 0.8,
		BranchDensity: 0.5, HammockFrac: 0.1, InnerLoopFrac: 0.35,
		TripMin: 8, TripMax: 64, IndirectFanout: 0,
	},
	{
		Name: "deepsjeng", Seed: 107,
		Funcs: 10, BlocksPerFunc: 12, OpsPerBlock: 4,
		LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0.0, WorkingSet: 1 << 21,
		WEasy: 4.5, WBiased: 1.0, WHard: 0.8, WPattern: 1, WCorr: 1.5, WLocal: 0.7,
		BranchDensity: 0.9, HammockFrac: 0.1, InnerLoopFrac: 0.08,
		TripMin: 8, TripMax: 18, IndirectFanout: 4,
	},
	{
		Name: "leela", Seed: 108,
		Funcs: 9, BlocksPerFunc: 11, OpsPerBlock: 4,
		LoadFrac: 0.26, StoreFrac: 0.09, FPFrac: 0.02, WorkingSet: 1 << 20,
		WEasy: 4, WBiased: 1.2, WHard: 1.3, WPattern: 0.8, WCorr: 1, WLocal: 0.8,
		BranchDensity: 0.9, HammockFrac: 0.1, InnerLoopFrac: 0.1,
		TripMin: 8, TripMax: 16, IndirectFanout: 0,
	},
	{
		Name: "exchange2", Seed: 109,
		Funcs: 12, BlocksPerFunc: 10, OpsPerBlock: 5,
		LoadFrac: 0.18, StoreFrac: 0.08, FPFrac: 0.0, WorkingSet: 1 << 15,
		WEasy: 4.5, WBiased: 0.8, WHard: 0.8, WPattern: 2, WCorr: 1.5, WLocal: 1.5,
		BranchDensity: 0.85, HammockFrac: 0.08, InnerLoopFrac: 0.25,
		TripMin: 8, TripMax: 16, IndirectFanout: 0,
	},
	{
		Name: "xz", Seed: 110,
		Funcs: 8, BlocksPerFunc: 11, OpsPerBlock: 5,
		LoadFrac: 0.30, StoreFrac: 0.14, FPFrac: 0.0, WorkingSet: 1 << 23,
		WEasy: 4.5, WBiased: 1.0, WHard: 0.9, WPattern: 1, WCorr: 1.2, WLocal: 0.6,
		BranchDensity: 0.8, HammockFrac: 0.08, InnerLoopFrac: 0.15,
		TripMin: 8, TripMax: 32, IndirectFanout: 0,
	},
}

// Names returns the SPECint17 proxy names in Fig. 10 order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Get returns the named workload: a SPECint proxy, "dhrystone", "coremark",
// or one of the interpreted-ISA kernels ("sort", "fib", "dispatch") whose
// branch outcomes come from real register/memory semantics.  Synthetic
// programs are memoized — repeated Gets return the same immutable instance,
// which is safe to run on any number of cores at once.  The ISA kernels are
// single-use (their behaviours share a mutable Machine) and are compiled
// fresh on every call.
func Get(name string) (*program.Program, error) {
	switch name {
	case "dhrystone":
		return Dhrystone(), nil
	case "coremark":
		return CoreMark(), nil
	case "sort":
		p, _, err := isa.Compile("sort", isa.SortSource)
		return p, err
	case "fib":
		p, _, err := isa.Compile("fib", isa.FibSource)
		return p, err
	case "dispatch":
		p, _, err := isa.Compile("dispatch", isa.DispatchSource)
		return p, err
	}
	for _, p := range profiles {
		if p.Name == name {
			return Build(p), nil
		}
	}
	all := append(Names(), "dhrystone", "coremark", "sort", "fib", "dispatch")
	sort.Strings(all)
	return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, all)
}

// GetAt returns the named workload laid out for instBytes-byte instructions
// — a host core's fetch geometry.  The SPECint proxies regenerate at any
// power-of-two width with identical structure (BuildWithGeometry); every
// other workload has a fixed 4-byte layout and is rejected at other widths.
func GetAt(name string, instBytes int) (*program.Program, error) {
	if instBytes == 4 {
		return Get(name)
	}
	if p, ok := GetProfile(name); ok && bitutil.IsPow2(instBytes) {
		return BuildWithGeometry(p, instBytes), nil
	}
	if _, err := Get(name); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("workloads: %s cannot be laid out for %d-byte instructions (only the SPECint proxies regenerate at other fetch geometries)", name, instBytes)
}

// GetProfile returns the profile for a SPECint proxy (for sweeps).
func GetProfile(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Dhrystone returns the Dhrystone proxy: a small synthetic systems loop —
// tiny code footprint, highly predictable branches, a couple of short
// function calls — the benchmark §II-A and §VI-B use.
func Dhrystone() *program.Program {
	return memo(cacheKey{Profile{Name: "dhrystone"}, 4}, buildDhrystone)
}

func buildDhrystone() *program.Program {
	b := program.NewBuilder("dhrystone", 0x10000, 4, 777)
	toMain := b.ForwardJump()
	f1 := b.Func(func() {
		b.Ops(4, 0.2, 0.1, 0, func() program.MemBehavior {
			return &program.StrideMem{Base: 0x100000, Stride: 8, Span: 512}
		})
		fx := b.ForwardBranch(&program.BiasedDir{P: 0.95})
		b.Ops(2, 0, 0, 0, nil)
		fx.Bind()
		b.Ops(1, 0, 0, 0, nil)
	})
	f2 := b.Func(func() {
		b.Ops(3, 0.2, 0.2, 0, func() program.MemBehavior {
			return &program.StrideMem{Base: 0x110000, Stride: 8, Span: 256}
		})
		b.Loop(3, func() { b.Ops(2, 0, 0, 0, nil) })
	})
	toMain.Bind()
	head := b.PC()
	b.Ops(3, 0.1, 0.1, 0, func() program.MemBehavior {
		return &program.StrideMem{Base: 0x120000, Stride: 8, Span: 256}
	})
	fx := b.ForwardBranch(&program.AlternatingDir{})
	b.Ops(2, 0, 0, 0, nil)
	fx.Bind()
	b.Call(f1)
	b.Ops(1, 0, 0, 0, nil)
	b.Call(f2)
	b.Ops(2, 0, 0, 0, nil)
	b.Jump(head)
	return b.MustSeal()
}

// CoreMark returns the CoreMark proxy: state-machine processing with many
// short forward hammocks (50/50 data-dependent skips) plus list and matrix
// phases — the workload whose accuracy §VI-C improves from 97% to 99.1%
// with SFB predication.
func CoreMark() *program.Program {
	return memo(cacheKey{Profile{Name: "coremark"}, 4}, buildCoreMark)
}

func buildCoreMark() *program.Program {
	b := program.NewBuilder("coremark", 0x10000, 4, 888)
	toMain := b.ForwardJump()
	// State machine: pattern-driven transitions + hammocks.
	fsm := b.Func(func() {
		b.Ops(2, 0.2, 0, 0, func() program.MemBehavior {
			return &program.StrideMem{Base: 0x200000, Stride: 4, Span: 1024}
		})
		for i := 0; i < 2; i++ {
			b.Hammock(0.3, 2, program.ClassALU)
			b.Ops(3, 0, 0, 0, nil)
		}
		fx := b.ForwardBranch(&program.PatternDir{Bits: []bool{true, false, true, true, false}})
		b.Ops(2, 0, 0, 0, nil)
		fx.Bind()
		b.Ops(1, 0, 0, 0, nil)
	})
	// List processing: pointer-ish loads, a data-dependent hammock per call.
	list := b.Func(func() {
		b.Loop(8, func() {
			b.Ops(4, 0.4, 0.05, 0, func() program.MemBehavior {
				return &program.RandMem{Base: 0x300000, Size: 1 << 13}
			})
		})
		b.Hammock(0.3, 2, program.ClassALU)
	})
	// Matrix phase: long predictable inner loops.
	matrix := b.Func(func() {
		b.Loop(16, func() {
			b.Ops(4, 0.3, 0.15, 0, func() program.MemBehavior {
				return &program.StrideMem{Base: 0x400000, Stride: 8, Span: 2048}
			})
		})
	})
	toMain.Bind()
	head := b.PC()
	b.Call(fsm)
	b.Ops(1, 0, 0, 0, nil)
	b.Call(list)
	b.Ops(1, 0, 0, 0, nil)
	b.Call(matrix)
	b.Ops(1, 0, 0, 0, nil)
	b.Jump(head)
	return b.MustSeal()
}
