package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cobra/internal/backend"
	"cobra/internal/fleet"
	"cobra/internal/spec"
	"cobra/internal/workloads"
)

var fleetCold = workload{
	name: "fleet-cold",
	why: "fleets/paper-small.yaml into an empty cache: every service simulates " +
		"through the backend and is written to the cache",
	threads: fleetWorkers,
	setup:   func(cfg config, led *ledger) (instance, error) { return setupFleet(cfg, led, false) },
}

var fleetCached = workload{
	name: "fleet-cached",
	why: "the same fleet replayed from a full cache: only digests and cache reads, " +
		"no simulation, so a simulator change shows no gain",
	threads: fleetWorkers,
	setup:   func(cfg config, led *ledger) (instance, error) { return setupFleet(cfg, led, true) },
}

const (
	fleetFile     = "fleets/paper-small.yaml"
	fleetGolden   = "internal/experiments/testdata/golden/fig10_small.txt"
	goldenSeed    = 42 // the seed the committed fleet and its golden output use
	cachedReplays = 20 // fully cached fleet runs per fleet-cached rep
	fleetWorkers  = 2  // the fleet's Parallelism: the reference host's CPU count
)

type fleetInst struct {
	workdir string
	f       *fleet.File
	golden  string // expected fig10 output, when it applies
	dir     string // fleet-cached: the primed cache
	cold    string // fleet-cached: counters of the cold run that primed it
}

func setupFleet(cfg config, led *ledger, cached bool) (instance, error) {
	in := &fleetInst{workdir: cfg.workdir}
	err := led.timeMS("setup.fleet_load", func() error {
		f, err := fleet.Load(filepath.Join(cfg.root, fleetFile))
		if err != nil {
			return err
		}
		if err := reshapeFleet(f, cfg); err != nil {
			return err
		}
		_, err = f.Digests()
		in.f = f
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.seed == goldenSeed && !cfg.quick {
		raw, err := os.ReadFile(filepath.Join(cfg.root, fleetGolden))
		if err != nil {
			return nil, err
		}
		in.golden = string(raw)
	}
	if err := led.timeMS("setup.workloads", func() error {
		for _, n := range append(workloads.Names(), "dhrystone") {
			if _, err := workloads.Get(n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if !cached {
		return in, nil
	}
	if in.dir, err = os.MkdirTemp(cfg.workdir, "fleet-cache-"); err != nil {
		return nil, err
	}
	err = led.timeMS("setup.cold_run", func() error {
		res, err := in.f.Run(context.Background(), fleet.Options{CacheDir: in.dir, Parallelism: fleetParallelism()})
		if err == nil {
			in.cold = digestOf(fleetOutputs(res))
		}
		return err
	})
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// reshapeFleet applies the benchmark seed to every service (the committed
// file pins seed 42 everywhere) and, for test-sized runs, shrinks budgets.
func reshapeFleet(f *fleet.File, cfg config) error {
	var insts uint64
	if cfg.quick {
		insts = 2_000
	}
	f.Defaults.Seed = cfg.seed
	for _, svc := range f.Services {
		switch {
		case svc.Run != nil:
			svc.Run.Seed = cfg.seed
			if insts > 0 {
				svc.Run.Insts = insts
			}
			if err := svc.Run.Canonicalize(); err != nil {
				return err
			}
		case svc.Sweep != nil:
			svc.Sweep.Base.Seed = cfg.seed
			if insts > 0 {
				svc.Sweep.Base.Insts = insts
			}
			if err := svc.Sweep.Canonicalize(); err != nil {
				return err
			}
		case svc.Experiment != nil:
			svc.Experiment.Seed = cfg.seed
			if insts > 0 {
				svc.Experiment.Insts = insts
			}
		}
	}
	return nil
}

// fleetParallelism is the fleet's service and cell concurrency:
// fleetWorkers, or fewer on a smaller host.
func fleetParallelism() int { return min(fleetWorkers, runtime.NumCPU()) }

// fleetOutputs lists every service's output in schedule order: what a
// fleet run produces, and what its counters digest covers.
func fleetOutputs(res *fleet.Result) [][2]string {
	out := make([][2]string, len(res.Ordered))
	for i, sr := range res.Ordered {
		out[i] = [2]string{sr.Name, sr.Output}
	}
	return out
}

// kinds: every rep runs the whole fleet.
func (in *fleetInst) kinds() int { return 1 }

func (in *fleetInst) rep(_ int, led *ledger, tr *tracer) (repResult, error) {
	if in.dir != "" {
		return in.cachedRep(led, tr)
	}
	var r repResult
	dir, err := os.MkdirTemp(in.workdir, "fleet-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	be := &timedBackend{led: led, tr: tr, origin: time.Now()}
	sp := tr.span("fleet", "fleet.Run cold")
	t0 := time.Now()
	res, err := in.f.Run(context.Background(), fleet.Options{Backend: be, CacheDir: dir, Parallelism: fleetParallelism()})
	r.wallMS = msSince(t0)
	sp.End()
	if err != nil {
		return r, err
	}
	r.opsMS = []float64{r.wallMS}
	led.addMS("fleet.self", r.wallMS-covered(be.ivs, msBetween(be.origin, t0), msBetween(be.origin, t0)+r.wallMS))
	in.bookRun(led, res)
	if res.Executed != len(in.f.Services) {
		r.failed++
	}
	if in.golden != "" && res.Services["fig10"].Output != in.golden {
		r.failed++
	}
	kb, err := dirKB(dir)
	if err != nil {
		return r, err
	}
	led.add("fleet.cache_kb", kb)
	if tr != nil {
		led.addMS("uarch.self", led.getMS("spec.warmup")+led.getMS("spec.simulate")-tr.settle(led))
	}
	r.counters = digestOf(fleetOutputs(res))
	return r, nil
}

func (in *fleetInst) cachedRep(led *ledger, tr *tracer) (repResult, error) {
	var r repResult
	results := make([]*fleet.Result, 0, cachedReplays)
	t0 := time.Now()
	for i := 0; i < cachedReplays; i++ {
		sp := tr.span("fleet", "fleet.Run cached")
		t1 := time.Now()
		res, err := in.f.Run(context.Background(), fleet.Options{CacheDir: in.dir, Parallelism: fleetParallelism()})
		ms := msSince(t1)
		sp.End()
		if err != nil {
			return r, err
		}
		r.opsMS = append(r.opsMS, ms)
		results = append(results, res)
	}
	r.wallMS = msSince(t0)
	led.addMS("fleet.self", sum(r.opsMS))
	for _, res := range results {
		in.bookRun(led, res)
		if res.Executed != 0 || digestOf(fleetOutputs(res)) != in.cold {
			r.failed++ // a replay must equal the cold run exactly
		}
	}
	kb, err := dirKB(in.dir)
	if err != nil {
		return r, err
	}
	led.add("fleet.cache_kb", kb)
	r.counters = in.cold
	return r, nil
}

func (in *fleetInst) bookRun(led *ledger, res *fleet.Result) {
	led.add("fleet.executed", float64(res.Executed))
	led.add("fleet.skipped", float64(res.Skipped))
	led.add("fleet.services", float64(res.Executed+res.Skipped))
}

func (in *fleetInst) close() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// timedBackend is the fleet's backend in cold reps: backend.Local, timed
// per call.  In traced reps it calls spec.Exec directly instead, the
// function Local's runner job calls, so the component decorator and the
// exec phase spans can be attached.
type timedBackend struct {
	led    *ledger
	tr     *tracer
	origin time.Time

	mu  sync.Mutex
	ivs []interval
}

func (b *timedBackend) Name() string { return "local" }

func (b *timedBackend) Run(ctx context.Context, s *spec.RunSpec) (*spec.Outcome, error) {
	sp := b.tr.span("backend", "backend.Run "+s.Design+" x "+s.Workload)
	t0 := time.Now()
	var out *spec.Outcome
	var err error
	if b.tr == nil {
		out, err = (&backend.Local{}).Run(ctx, s)
	} else {
		out, err = spec.Exec(s, spec.Attach{Ctx: ctx, Wrap: b.tr.wrap, Span: sp})
	}
	t1 := time.Now()
	sp.End()
	ms := msBetween(t0, t1)
	b.led.addMS("fleet.backend", ms)
	b.led.add("fleet.backend_calls", 1)
	b.mu.Lock()
	b.ivs = append(b.ivs, interval{msBetween(b.origin, t0), msBetween(b.origin, t1)})
	b.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", s.Design, s.Workload, err)
	}
	b.led.addMS("runner.overhead", ms-out.Timings.TotalMS)
	b.led.add("sim.kinst", float64(out.Stats.Instructions+s.Warmup)/1e3)
	b.led.add("uarch.kcycles", float64(out.Stats.Cycles)/1e3)
	if b.tr != nil {
		b.led.addTimings(out.Timings)
	}
	return out, nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// dirKB is the total size of the regular files under dir, in KiB.
func dirKB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return float64(n) / 1024, err
}
