package runner

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"cobra/internal/spec"
)

// SpecResult pairs one spec's execution outcome with runner bookkeeping.
type SpecResult struct {
	// Spec is the canonical form that actually ran (defaults explicit,
	// workload hash pinned) — the form whose Digest keys result caches.
	Spec *spec.RunSpec
	// Outcome carries the counters, pipeline handle, captured events, and
	// attribution profile.
	Outcome *spec.Outcome
	// Wall is the job's wall-clock run time (telemetry only).
	Wall time.Duration
}

// RunSpecs executes the canonical run each spec describes, fanned out across
// opt.Workers with a deterministic merge.  Every spec runs with its own seed,
// so each result is bit-identical to a direct cobra-sim/cobra.Run of the same
// spec.  Specs are not mutated: each job runs its canonical copy, returned in
// SpecResult.Spec.  A panicking job becomes a *PanicError instead of killing
// the process.  Failures are reported per opt.Policy: FailFast cancels the
// rest of the batch and returns (nil, *JobError) for the root cause;
// CollectAll runs everything and returns the successful results alongside a
// *BatchError (failed jobs leave a zero SpecResult at their index).
func RunSpecs(specs []*spec.RunSpec, opt Options) ([]SpecResult, error) {
	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	bctx, cancel := context.WithCancel(base)
	defer cancel()
	opt.Metrics.AddJobs(len(specs))
	type slot struct {
		res SpecResult
		err error
	}
	rs := Map(opt.Workers, len(specs), func(i int) slot {
		ctx, stop := bctx, context.CancelFunc(func() {})
		if opt.Timeout > 0 {
			ctx, stop = context.WithTimeout(bctx, opt.Timeout)
		}
		opt.Metrics.JobStarted()
		res, err := runJob(ctx, i, specs[i], opt)
		stop()
		opt.Metrics.JobDone(err != nil)
		if err != nil && opt.Policy == FailFast {
			cancel()
		}
		return slot{res, err}
	})
	out := make([]SpecResult, len(specs))
	var errs []*JobError
	for i, r := range rs {
		if r.err != nil {
			errs = append(errs, &JobError{Index: i, Topology: specs[i].Topology,
				Workload: "workload " + specs[i].Workload, Err: r.err})
			continue
		}
		out[i] = r.res
	}
	if len(errs) == 0 {
		return out, nil
	}
	if opt.Policy == CollectAll {
		return out, &BatchError{Total: len(specs), Errs: errs}
	}
	// FailFast: return the root cause, not the cancellation cascade it
	// triggered in later-draining jobs.
	for _, e := range errs {
		if !errors.Is(e.Err, context.Canceled) {
			return nil, e
		}
	}
	return nil, errs[0]
}

// runJob executes spec i of a batch with the per-job hooks opt assigns it
// (exec span, telemetry recorder) and books its wall time
// and event-ring drops on opt.Metrics.
func runJob(ctx context.Context, i int, s *spec.RunSpec, opt Options) (SpecResult, error) {
	at := spec.Attach{Ctx: ctx, Metrics: opt.Metrics}
	if opt.SpanFor != nil {
		if parent := opt.SpanFor(i); parent != nil {
			at.Span = parent.Child("exec", "run")
			at.Span.SetAttr("topology", s.Topology)
			at.Span.SetAttr("workload", s.Workload)
		}
	}
	if opt.RecorderFor != nil {
		at.Recorder = opt.RecorderFor(i)
	}
	begin := time.Now()
	res, err := safeExec(s, at)
	res.Wall = time.Since(begin)
	var insts uint64
	if res.Outcome != nil && res.Outcome.Stats != nil {
		insts = res.Outcome.Stats.Instructions
		// Surface silent event-ring overflow on /metrics.
		opt.Metrics.AddEventDrops(res.Outcome.EventsTotal - uint64(len(res.Outcome.Events)))
	}
	opt.Metrics.ObserveJob(res.Wall, insts)
	if err != nil {
		at.Span.SetAttr("error", err.Error())
	}
	at.Span.End()
	return res, err
}

// safeExec is spec.Exec behind the runner's recover boundary: a panicking
// job becomes a *PanicError instead of killing the process.
func safeExec(s *spec.RunSpec, at spec.Attach) (res SpecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := at.Ctx.Err(); err != nil {
		return SpecResult{}, err // batch already cancelled; don't start
	}
	c, err := s.Canonical()
	if err != nil {
		return SpecResult{}, err
	}
	out, err := spec.Exec(c, at)
	if err != nil {
		if cerr := at.Ctx.Err(); cerr != nil {
			err = cerr // report the cancellation, not its downstream wrapping
		}
		return SpecResult{}, err
	}
	return SpecResult{Spec: c, Outcome: out}, nil
}
