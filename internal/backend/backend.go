// Package backend is the unified execution seam between "what to run" (a
// canonical spec.RunSpec) and "where to run it".  Every tool used to make
// that choice itself — cobra-sim had a runRemote fork, cobra-experiments
// threaded a *client.Client through its Config, and anything new had to
// re-invent both — so the choice is now one interface with two
// implementations:
//
//   - Local executes in-process through runner.Exec, inheriting its panic
//     containment and metrics accounting;
//   - Remote submits to a cobra-serve daemon through the retrying client,
//     riding out restarts, backpressure, and drains.
//
// Both return the same *spec.Outcome for the same spec, byte-identically:
// the spec digest pins the simulation, and the daemon runs the same
// spec.Exec this process would.  Callers therefore never branch on the
// backend kind for correctness — only for capabilities a remote result
// cannot carry (the live pipeline handle, attribution profiles), which is
// what Outcome's nil fields express.
package backend

import (
	"context"
	"fmt"

	"cobra/internal/client"
	"cobra/internal/obs"
	"cobra/internal/runner"
	"cobra/internal/spec"
)

// Backend executes canonical RunSpecs.  Implementations must be safe for
// concurrent use: grid-shaped callers fan Run out across worker goroutines.
type Backend interface {
	// Name identifies the backend for logs and result headers: "local", or
	// the daemon URL for a remote backend.
	Name() string
	// Run executes the simulation s describes and returns its outcome.  The
	// spec is not mutated; execution always happens on the canonical form,
	// so the outcome is the one s.Digest() addresses.  ctx cancels the run
	// cooperatively (layered under the spec's own TimeoutMS).
	Run(ctx context.Context, s *spec.RunSpec) (*spec.Outcome, error)
}

// Local runs specs in-process.  Each Run goes through runner.Exec, so a
// panicking simulation becomes a *runner.PanicError instead of killing the
// process, and job telemetry lands on the shared metrics sink.
type Local struct {
	// Metrics, when non-nil, receives per-job telemetry (counts, wall time,
	// simulated cycles/instructions) exactly like a runner batch.
	Metrics *obs.Metrics
}

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// Run implements Backend: one spec through the runner's containment
// boundary, bit-identical to a direct spec.Exec of the same spec.
func (l *Local) Run(ctx context.Context, s *spec.RunSpec) (*spec.Outcome, error) {
	var met *obs.Metrics
	if l != nil {
		met = l.Metrics
	}
	met.AddJobs(1)
	res, err := runner.Exec(s, spec.Attach{Ctx: ctx, Metrics: met})
	return res.Outcome, err
}

// Remote runs specs on a cobra-serve daemon through the retrying client.
// The returned outcome carries what the wire result does — counters, event
// traces — and leaves process-local handles (pipeline, attribution profile)
// nil.
type Remote struct {
	c   *client.Client
	url string
}

// NewRemote builds a Remote backend from a client configuration (BaseURL
// required; zero values elsewhere select the client defaults).
func NewRemote(cfg client.Config) (*Remote, error) {
	cl, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Remote{c: cl, url: cfg.BaseURL}, nil
}

// Name implements Backend.
func (r *Remote) Name() string { return r.url }

// Client exposes the underlying retrying client for callers that need the
// raw conversation (status polling, progress streams).
func (r *Remote) Client() *client.Client { return r.c }

// Run implements Backend: submit, poll to settlement, decode.
func (r *Remote) Run(ctx context.Context, s *spec.RunSpec) (*spec.Outcome, error) {
	res, err := r.c.Run(ctx, s.Clone())
	if err != nil {
		return nil, err
	}
	if res.Stats == nil {
		return nil, fmt.Errorf("backend: %s returned a result without counters", r.url)
	}
	return &spec.Outcome{
		Stats:       res.Stats,
		Events:      res.Events,
		EventsTotal: res.EventsTotal,
		Intervals:   res.Intervals,
	}, nil
}

// All fans specs out across up to workers goroutines on be and returns the
// outcomes in submission order — the deterministic-merge contract of
// runner.Map applied to an arbitrary backend.  Every spec is attempted;
// failures come back aggregated as a *runner.BatchError whose job indices
// identify the failed specs, with the successful outcomes still populated.
func All(ctx context.Context, be Backend, specs []*spec.RunSpec, workers int) ([]*spec.Outcome, error) {
	type slot struct {
		out *spec.Outcome
		err error
	}
	res := runner.Map(workers, len(specs), func(i int) slot {
		out, err := be.Run(ctx, specs[i])
		return slot{out, err}
	})
	outs := make([]*spec.Outcome, len(specs))
	for i, r := range res {
		outs[i] = r.out
	}
	if batch := runner.Failures(specs, func(i int) error { return res[i].err }); batch != nil {
		return outs, batch
	}
	return outs, nil
}
