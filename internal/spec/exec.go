package spec

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"cobra/internal/compose"
	"cobra/internal/faults"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/stats"
	"cobra/internal/uarch"
	"cobra/internal/workloads"
)

// Attach carries the process-local, non-serializable hooks a caller may wire
// into one execution: live sinks and decorators that describe *how this
// process watches the run*, never *what the run is* — which is why they live
// here and not in the RunSpec (and therefore never perturb the digest).
type Attach struct {
	// Observer receives the cycle-level event stream.  When nil and the
	// spec's Observe.Events is set, Exec creates a ring-buffered tracer and
	// returns its contents in the Outcome.
	Observer obs.Observer
	// Profile, when non-nil, accumulates per-PC misprediction attribution
	// into the caller's profile; otherwise Observe.Attribution makes Exec
	// allocate one and return it.
	Profile *obs.BranchProfile
	// Metrics, when non-nil, receives live cycle/instruction telemetry: Exec
	// links the recorder it builds to it.  A caller-supplied Recorder keeps
	// the metrics it was built with instead.
	Metrics *obs.Metrics
	// Ctx, when non-nil, cancels the run cooperatively; the spec's own
	// TimeoutMS is layered on top.
	Ctx context.Context
	// Wrap decorates every instantiated sub-component (composed with the
	// spec's fault plan when both are present; the caller's wrapper runs
	// innermost).
	Wrap func(pred.Subcomponent) pred.Subcomponent
	// OnFault observes every fault the spec's plan injects.
	OnFault func(faults.Record)
	// Span, when non-nil, is the parent wall-clock span under which Exec
	// records its phase spans (canonicalize, workload, compose, warmup,
	// simulate) on the "exec" track — the request-tracing hook the serving
	// stack threads through the runner.  nil skips span recording; the
	// Timings breakdown is measured either way.
	Span *obs.ActiveSpan
	// Recorder, when non-nil, is the caller's telemetry sink for this run, so
	// live readers (the serving stack's GET /v1/runs/{id}/progress stream)
	// can watch its phase, totals and windows; Exec resets it first.
	// Otherwise Exec builds one from Observe.IntervalInsts and Metrics.
	// Either way the core feeds it, and when it records windows their
	// snapshot is returned in the Outcome.
	Recorder *interval.Recorder
}

// Timings is the wall-clock phase breakdown of one Exec call, in
// milliseconds.  Pure telemetry: it never enters the spec digest, and cached
// results replay the timings of the original computation.
type Timings struct {
	CanonicalizeMS float64 `json:"canonicalize_ms"`
	WorkloadMS     float64 `json:"workload_ms"`
	ComposeMS      float64 `json:"compose_ms"`
	WarmupMS       float64 `json:"warmup_ms,omitempty"`
	SimulateMS     float64 `json:"simulate_ms"`
	TotalMS        float64 `json:"total_ms"`
}

// Outcome is everything one execution produced.
type Outcome struct {
	Stats    *stats.Sim
	Pipeline *compose.Pipeline
	// Events holds the captured cycle-level trace when the spec asked for
	// one (Observe.Events) and the caller did not supply its own Observer.
	Events []obs.Event
	// EventsTotal counts every emitted event; when it exceeds len(Events)
	// the ring overflowed and only the newest records were kept.
	EventsTotal uint64
	// Profile is the per-PC attribution profile: the caller's, or a fresh
	// one when Observe.Attribution asked for it.
	Profile *obs.BranchProfile
	// Intervals is the windowed-telemetry snapshot when the run's recorder
	// records windows (Observe.IntervalInsts > 0, or the caller's recorder).
	Intervals *interval.Set
	// Timings is the wall-clock phase breakdown of this execution.
	Timings Timings
}

// geometryFor resolves the canonical spec's pipeline geometry — parsed
// topology, base compose options, resolved host config — through the
// process-wide compose geometry memo.  The key is the digest prefix of the
// geometry-bearing subset of the spec (topology, pipeline parameters, host
// core, fetch toggles), so a sweep varying only seed/workload/instruction
// budget hits one shared entry instead of re-parsing and re-validating per
// run.  c must already be canonical; the memoized value is immutable and
// shared across goroutines (per-run hooks are attached to a copy of Opt).
func geometryFor(c *RunSpec) (*compose.Geometry, error) {
	g := RunSpec{
		Version:         c.Version,
		Topology:        c.Topology,
		Pipeline:        c.Pipeline,
		Host:            c.Host,
		Core:            c.Core,
		SerializedFetch: c.SerializedFetch,
		SFB:             c.SFB,
	}
	raw, err := json.Marshal(&g)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	key := fmt.Sprintf("geom\x00%x", sum[:16])
	return compose.GeometryFor(key, func() (*compose.Geometry, error) {
		opt, err := c.Pipeline.Options()
		if err != nil {
			return nil, err
		}
		cfg, err := c.ResolveCore()
		if err != nil {
			return nil, err
		}
		topo, err := compose.ParseTopology(c.Topology)
		if err != nil {
			return nil, err
		}
		return &compose.Geometry{Topo: topo, Opt: opt, Aux: cfg}, nil
	})
}

// Exec runs the simulation a spec describes.  It is the one execution path
// behind cobra.Run, runner.RunSpecs, the experiment grids, and cobra-serve:
// canonicalize, compose the pipeline (with the fault plan and observer wired
// in), build the workload at the host core's instruction width, assemble the
// host core, run warmup + measured instructions, and enforce the
// paranoid-mode invariant contract.
func Exec(s *RunSpec, at Attach) (*Outcome, error) {
	begin := time.Now()
	var tm Timings
	// endPhase closes one instrumented phase: it stamps the phase's wall
	// time into the breakdown and records the span (with the error, if the
	// phase failed).
	endPhase := func(sp *obs.ActiveSpan, out *float64, t0 time.Time, err error) {
		*out = time.Since(t0).Seconds() * 1e3
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}

	rec := at.Recorder
	if rec != nil {
		rec.Reset() // a caller-owned recorder may carry a previous attempt
	} else {
		rec = interval.NewRecorder(s.Observe.IntervalInsts, at.Metrics)
	}

	rec.SetPhase(obs.PhaseCanonicalize)
	sp := at.Span.Child("exec", "canonicalize")
	t0 := time.Now()
	c, err := s.Canonical()
	endPhase(sp, &tm.CanonicalizeMS, t0, err)
	if err != nil {
		return nil, err
	}

	rec.SetPhase(obs.PhaseCompose)
	sp = at.Span.Child("exec", "compose")
	t0 = time.Now()
	geo, err := geometryFor(c)
	if err != nil {
		endPhase(sp, &tm.ComposeMS, t0, err)
		return nil, err
	}
	opt := geo.Opt // copy: per-run hooks must not leak into the shared memo
	opt.Paranoid = c.Paranoid
	opt.Wrap = at.Wrap
	if plan, perr := c.Faults.Plan(); perr != nil {
		endPhase(sp, &tm.ComposeMS, t0, perr)
		return nil, perr
	} else if plan != nil {
		plan.OnFault = at.OnFault
		if inner := at.Wrap; inner != nil {
			opt.Wrap = func(sc pred.Subcomponent) pred.Subcomponent { return plan.Wrap(inner(sc)) }
		} else {
			opt.Wrap = plan.Wrap
		}
	}

	var tracer *obs.Tracer
	opt.Observer = at.Observer
	if opt.Observer == nil && c.Observe.Events {
		tracer = obs.NewTracer(c.Observe.EventsBuf)
		opt.Observer = tracer
	}

	cfg := geo.Aux.(uarch.Config)
	topo := geo.Topo
	name := c.Design
	if name == "" {
		name = c.Topology
	}
	bp, err := compose.New(cfg.Fetch, topo, opt)
	if err != nil {
		err = fmt.Errorf("spec: composing %s: %w", name, err)
		endPhase(sp, &tm.ComposeMS, t0, err)
		return nil, err
	}
	endPhase(sp, &tm.ComposeMS, t0, nil)

	rec.SetPhase(obs.PhaseWorkload)
	sp = at.Span.Child("exec", "workload")
	t0 = time.Now()
	prog, err := workloads.GetAt(c.Workload, cfg.Fetch.InstBytes)
	endPhase(sp, &tm.WorkloadMS, t0, err)
	if err != nil {
		return nil, err
	}

	core := uarch.NewCore(cfg, bp, prog, c.Seed)
	prof := at.Profile
	if prof == nil && c.Observe.Attribution {
		prof = obs.NewBranchProfile()
	}
	if prof != nil {
		core.SetBranchProfile(prof)
	}
	core.SetRecorder(rec)

	ctx := at.Ctx
	if d := c.Timeout(); d > 0 {
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, d)
		defer cancel()
	}
	if ctx != nil {
		core.SetContext(ctx)
	}

	if c.Warmup > 0 {
		rec.SetPhase(obs.PhaseWarmup)
		rec.SetTarget(c.Warmup)
		sp = at.Span.Child("exec", "warmup")
		t0 = time.Now()
		core.Run(c.Warmup)
		if ctx != nil && ctx.Err() != nil {
			err := fmt.Errorf("spec: %s on %s: %w (during warmup)", name, c.Workload, ctx.Err())
			endPhase(sp, &tm.WarmupMS, t0, err)
			return nil, err
		}
		core.ResetStats()
		endPhase(sp, &tm.WarmupMS, t0, nil)
	}
	rec.SetPhase(obs.PhaseSimulate)
	rec.SetTarget(c.Insts)
	sp = at.Span.Child("exec", "simulate")
	t0 = time.Now()
	res := core.Run(c.Insts)
	if ctx != nil && ctx.Err() != nil {
		err := fmt.Errorf("spec: %s on %s: %w (after %d committed instructions)",
			name, c.Workload, ctx.Err(), res.Instructions)
		endPhase(sp, &tm.SimulateMS, t0, err)
		return nil, err
	}
	if n := bp.ViolationCount(); n > 0 {
		err := fmt.Errorf("spec: %d invariant violations; first: %w", n, bp.Violations()[0])
		endPhase(sp, &tm.SimulateMS, t0, err)
		return nil, err
	}
	sp.SetAttr("cycles", fmt.Sprintf("%d", res.Cycles))
	sp.SetAttr("instructions", fmt.Sprintf("%d", res.Instructions))
	endPhase(sp, &tm.SimulateMS, t0, nil)
	tm.TotalMS = time.Since(begin).Seconds() * 1e3

	out := &Outcome{Stats: res, Pipeline: bp, Profile: prof, Timings: tm}
	if tracer != nil {
		out.Events = tracer.Events()
		out.EventsTotal = tracer.Total()
	}
	if rec.IntervalInsts() > 0 {
		out.Intervals = rec.Set()
	}
	return out, nil
}
