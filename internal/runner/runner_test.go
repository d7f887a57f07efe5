package runner

import (
	"runtime"
	"testing"

	"cobra/internal/pred"
	"cobra/internal/spec"
	"cobra/internal/uarch"
)

// testSpecs is a small design × workload grid whose point i runs with seed
// Derive(42, i), the way experiment grids are seeded.
func testSpecs(insts uint64) []*spec.RunSpec {
	var specs []*spec.RunSpec
	for _, topo := range []string{"GBIM3 > BTB2 > BIM2", "GTAG3 > BTB2 > BIM2"} {
		for _, w := range []string{"dhrystone", "gcc", "sort"} {
			specs = append(specs, &spec.RunSpec{
				Topology: topo,
				Pipeline: spec.Pipeline{GHistBits: 32},
				Workload: w,
				Seed:     Derive(42, uint64(len(specs))),
				Insts:    insts,
			})
		}
	}
	return specs
}

// fingerprint reduces a result to the fields the experiment tables render.
type fingerprint struct {
	cycles, insts, misp, bubbles uint64
}

func fp(r SpecResult) fingerprint {
	s := r.Outcome.Stats
	return fingerprint{s.Cycles, s.Instructions, s.Mispredicts, s.FetchBubbles}
}

// TestWorkerCountInvariance is the determinism contract: the same batch run
// with 1, 3, and GOMAXPROCS workers produces identical counters per job.
func TestWorkerCountInvariance(t *testing.T) {
	specs := testSpecs(20_000)
	serial, err := RunSpecs(specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, runtime.GOMAXPROCS(0), 0} {
		par, err := RunSpecs(specs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if fp(serial[i]) != fp(par[i]) {
				t.Fatalf("workers=%d job %d diverged: serial %+v parallel %+v",
					workers, i, fp(serial[i]), fp(par[i]))
			}
		}
	}
}

// TestSeedDerivationPerIndex: two specs identical except for their derived
// seeds (grid positions 0 and 1) must see different dynamics, and the same
// batch must reproduce exactly at another worker count.
func TestSeedDerivationPerIndex(t *testing.T) {
	at := func(i uint64) *spec.RunSpec {
		return &spec.RunSpec{Topology: "BIM2", Workload: "gcc", Seed: Derive(7, i), Insts: 20_000}
	}
	specs := []*spec.RunSpec{at(0), at(1)}
	res, err := RunSpecs(specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp(res[0]) == fp(res[1]) {
		t.Error("specs at different grid positions ran with the same dynamics (seed not derived per index)")
	}
	again, err := RunSpecs(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if fp(res[i]) != fp(again[i]) {
			t.Errorf("job %d not reproducible across runs", i)
		}
	}
}

func TestDerive(t *testing.T) {
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for i := uint64(0); i < 1000; i++ {
			s := Derive(base, i)
			if s == 0 {
				t.Fatal("Derive produced the reserved zero seed")
			}
			if seen[s] {
				t.Fatalf("Derive collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
	if Derive(42, 7) != Derive(42, 7) {
		t.Error("Derive not deterministic")
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if n := len(Map(4, 0, func(i int) int { return i })); n != 0 {
		t.Errorf("empty map returned %d results", n)
	}
}

// TestRunErrors: a bad topology or workload fails its job with an error
// rather than a panic, including a fixed-layout workload on a frontend whose
// instruction width it has no layout for.
func TestRunErrors(t *testing.T) {
	wide := uarch.DefaultConfig()
	wide.Fetch = pred.Config{FetchWidth: 8, InstBytes: 2}
	for name, s := range map[string]*spec.RunSpec{
		"unknown component":       {Topology: "NOPE9", Workload: "gcc", Insts: 100},
		"unknown workload":        {Topology: "BIM2", Workload: "nonesuch", Insts: 100},
		"malformed topology":      {Topology: "] bad [", Workload: "gcc", Insts: 100},
		"fixed layout at 2 bytes": {Topology: "BIM2", Workload: "dhrystone", Core: &wide, Insts: 100},
		"kernel at 2 bytes":       {Topology: "BIM2", Workload: "sort", Core: &wide, Insts: 100},
	} {
		if _, err := RunSpecs([]*spec.RunSpec{s}, Options{Workers: 2}); err == nil {
			t.Errorf("%s must error", name)
		}
	}
}

// TestSharedCachedProgramConcurrently runs many jobs over the same cached
// workload instance at high worker counts — the scenario the race detector
// watches (run with -race in CI).
func TestSharedCachedProgramConcurrently(t *testing.T) {
	specs := make([]*spec.RunSpec, 8)
	for i := range specs {
		specs[i] = &spec.RunSpec{Topology: "GBIM3 > BTB2 > BIM2", Pipeline: spec.Pipeline{GHistBits: 32},
			Workload: "gcc", Seed: Derive(1, uint64(i)), Insts: 10_000}
	}
	res, err := RunSpecs(specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Outcome.Stats.Instructions < 10_000 {
			t.Errorf("job %d committed %d insts", i, r.Outcome.Stats.Instructions)
		}
	}
}
