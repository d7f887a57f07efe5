package main

import (
	"fmt"
	"time"

	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/stats"
	"cobra/internal/workloads"
)

var simLong = workload{
	name: "sim-long",
	why: "full core on three long runs covering every Table I component kind: " +
		"hard (tage-l x mcf), medium (b2 x gcc), easy (tourney x x264)",
	threads: 1,
	setup:   setupSimLong,
}

type simLongInst struct{ specs []*spec.RunSpec }

func setupSimLong(cfg config, led *ledger) (instance, error) {
	insts, warmup := uint64(300_000), uint64(30_000)
	if cfg.quick {
		insts, warmup = 20_000, 2_000
	}
	pairs := [][2]string{{"tage-l", "mcf"}, {"b2", "gcc"}, {"tourney", "x264"}}
	in := &simLongInst{}
	for i, p := range pairs {
		if err := led.timeMS("setup.workloads", func() error {
			_, err := workloads.Get(p[1])
			return err
		}); err != nil {
			return nil, err
		}
		s, err := spec.Preset(p[0])
		if err != nil {
			return nil, err
		}
		s.Workload, s.Insts, s.Warmup = p[1], insts, warmup
		s.Seed = runner.Derive(cfg.seed, uint64(i))
		if err := s.Canonicalize(); err != nil {
			return nil, err
		}
		// A one-instruction run builds the memoized geometry, the pipeline and
		// the core once, as a user's first run of this design would.
		prime := s.Clone()
		prime.Insts, prime.Warmup = 1, 0
		if _, err := spec.Exec(prime, spec.Attach{}); err != nil {
			return nil, err
		}
		in.specs = append(in.specs, s)
	}
	return in, nil
}

// kinds: each rep is one of the three runs.
func (in *simLongInst) kinds() int { return len(in.specs) }

func (in *simLongInst) rep(kind int, led *ledger, tr *tracer) (repResult, error) {
	var r repResult
	var sim *stats.Sim
	s := in.specs[kind]
	t0 := time.Now()
	if tr == nil {
		res, err := runner.RunSpecs([]*spec.RunSpec{s}, runner.Options{Workers: 1})
		if err != nil {
			return r, err
		}
		r.wallMS = msSince(t0)
		sim = res[0].Outcome.Stats
		led.addMS("runner.overhead", r.wallMS-res[0].Outcome.Timings.TotalMS)
	} else {
		// runner.Options has no component hook, so traced reps call
		// spec.Exec, the function each runner job calls, directly.
		sp := tr.span("exec", "spec.Exec "+s.Design+" x "+s.Workload)
		out, err := spec.Exec(s, spec.Attach{Wrap: tr.wrap, Span: sp})
		sp.End()
		if err != nil {
			return r, fmt.Errorf("%s on %s: %w", s.Design, s.Workload, err)
		}
		r.wallMS = msSince(t0)
		sim = out.Stats
		led.addTimings(out.Timings)
		led.addMS("uarch.self", led.getMS("spec.warmup")+led.getMS("spec.simulate")-tr.settle(led))
	}
	r.opsMS = []float64{r.wallMS}
	led.add("sim.kinst", float64(sim.Instructions+s.Warmup)/1e3)
	led.add("uarch.kcycles", float64(sim.Cycles)/1e3)
	r.counters = digestOf(sim)
	return r, nil
}

func (in *simLongInst) close() {}
