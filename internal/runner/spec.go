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
// opt.Workers with a deterministic merge.  Every spec runs through Exec with
// its own seed, so each result is bit-identical to a direct
// cobra-sim/cobra.Run of the same spec.  The whole batch is counted as
// submitted on opt.Metrics up front, so progress reads done/total.
// Failures are reported per opt.Policy: FailFast cancels the rest of the
// batch and returns (nil, *JobError) for the root cause; CollectAll runs
// everything and returns the successful results alongside a *BatchError
// (failed jobs leave a zero SpecResult at their index).
func RunSpecs(specs []*spec.RunSpec, opt Options) ([]SpecResult, error) {
	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	opt.Metrics.AddJobs(len(specs))
	type slot struct {
		res SpecResult
		err error
	}
	rs := Map(opt.Workers, len(specs), func(i int) slot {
		res, err := Exec(specs[i], spec.Attach{Ctx: ctx, Metrics: opt.Metrics})
		if err != nil && opt.Policy == FailFast {
			cancel()
		}
		return slot{res, err}
	})
	out := make([]SpecResult, len(specs))
	for i, r := range rs {
		if r.err == nil {
			out[i] = r.res
		}
	}
	batch := Failures(specs, func(i int) error { return rs[i].err })
	if batch == nil {
		return out, nil
	}
	if opt.Policy == CollectAll {
		return out, batch
	}
	// FailFast: return the root cause, not the cancellation cascade it
	// triggered in later-draining jobs.
	for _, e := range batch.Errs {
		if !errors.Is(e.Err, context.Canceled) {
			return nil, e
		}
	}
	return nil, batch.Errs[0]
}

// Exec runs one spec through the runner's boundary, the one every caller
// that executes a single spec (RunSpecs' jobs, backend.Local, cobra-serve's
// workers) goes through.  It canonicalizes s and runs spec.Exec under at,
// turning a panic into a *PanicError instead of killing the process and
// reporting a cancelled or expired at.Ctx as the context's own error.  When
// at.Span is set, the run is recorded as an "exec"/"run" child span carrying
// the topology and workload.  The job's start and finish, wall time,
// throughput and event-ring drops land on at.Metrics; counting it as
// submitted (Metrics.AddJobs) is the caller's, so a batch can count all its
// jobs up front.
func Exec(s *spec.RunSpec, at spec.Attach) (SpecResult, error) {
	if at.Ctx == nil {
		at.Ctx = context.Background()
	}
	at.Span = at.Span.Child("exec", "run")
	at.Span.SetAttr("topology", s.Topology)
	at.Span.SetAttr("workload", s.Workload)
	at.Metrics.JobStarted()
	begin := time.Now()
	res, err := safeExec(s, at)
	res.Wall = time.Since(begin)
	var insts uint64
	if res.Outcome != nil && res.Outcome.Stats != nil {
		insts = res.Outcome.Stats.Instructions
		// Surface silent event-ring overflow on /metrics.
		at.Metrics.AddEventDrops(res.Outcome.EventsTotal - uint64(len(res.Outcome.Events)))
	}
	at.Metrics.ObserveJob(res.Wall, insts)
	if err != nil {
		at.Span.SetAttr("error", err.Error())
	}
	at.Span.End()
	at.Metrics.JobDone(err != nil)
	return res, err
}

// safeExec is spec.Exec behind the runner's recover boundary.
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
