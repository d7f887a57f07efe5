// Package runner is the parallel experiment engine: it fans a batch of
// independent full-core simulations — canonical spec.RunSpecs, each run by
// spec.Exec — out across worker goroutines and merges the results back in
// deterministic submission order.
//
// Determinism is the contract, not a best effort.  Three properties make a
// batch's output bit-identical regardless of worker count:
//
//  1. every job's spec.Exec builds its own compose.Pipeline and uarch.Core —
//     no predictor or core state is shared between jobs;
//  2. every spec carries its own seed, and grid builders give point i the
//     seed Derive(base, i), a splitmix64 stream indexed by submission
//     position, so a job's dynamics depend only on its position in the grid,
//     never on which worker ran it or when;
//  3. results land in out[i] for job i — workers race only over disjoint
//     slots, and the merged slice reads in submission order.
//
// Shared inputs are safe by construction: synthetic programs are immutable
// after build (per-execution behaviour state lives in each oracle's State
// slots) and the workloads cache hands every job the same instance, while
// single-use interpreted-ISA programs are compiled fresh per job.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cobra/internal/obs"
	"cobra/internal/spec"
)

// Derive returns the seed for the job at a submission index: the index-th
// output of a splitmix64 stream started at base.  Distinct indices give
// statistically independent seeds even for adjacent bases, and the result
// never collides with the "use the default" zero seed.
func Derive(base, index uint64) uint64 {
	x := base + (index+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return x
}

// Map runs fn(0) … fn(n-1) on up to workers goroutines and returns the
// results indexed by argument — the deterministic-merge primitive under
// RunSpecs and backend.All.  workers <= 0
// means runtime.GOMAXPROCS(0); workers == 1 runs everything inline on the
// calling goroutine (the serial path).
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Policy selects how a batch reacts to job failures.
type Policy int

const (
	// FailFast cancels the remaining jobs on the first failure and returns
	// the root-cause error (the lowest-index failure that is not a
	// cancellation cascade).  The default.
	FailFast Policy = iota
	// CollectAll lets every job run to completion (or failure), returning
	// the successful results alongside a *BatchError describing every
	// failed cell — one poisoned (design × workload) cell no longer kills
	// the whole sweep.
	CollectAll
)

// Options configures a batch run.
type Options struct {
	// Workers caps the worker goroutines: <= 0 means GOMAXPROCS, 1 forces
	// the serial in-line path.  The choice never changes results.
	Workers int
	// Policy selects fail-fast (default) or collect-all error handling.
	Policy Policy
	// Ctx, when non-nil, cancels the whole batch when done (e.g. SIGINT).
	Ctx context.Context

	// Metrics, when non-nil, receives live batch telemetry (job counts,
	// simulated cycles/instructions) that a -metrics-addr endpoint can serve
	// while the batch runs.  Purely observational: counters never influence
	// job scheduling or results.
	Metrics *obs.Metrics
}

// JobError identifies which job of a batch failed and why.
type JobError struct {
	Index    int
	Topology string
	Workload string
	Err      error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("runner: job %d (%q on workload %s): %v", e.Index, e.Topology, e.Workload, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted to an error, preserving the panic
// value and the goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// BatchError aggregates every failed job of a CollectAll batch, ascending by
// job index.
type BatchError struct {
	Total int // jobs submitted
	Errs  []*JobError
}

func (e *BatchError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("runner: %d of %d jobs failed; first: %v", len(e.Errs), e.Total, e.Errs[0])
}

// Failures frames every failed job of a batch as a *JobError, errOf(i)
// being job i's error (nil when it succeeded), and returns them as a
// *BatchError — or nil when no job failed.
func Failures(specs []*spec.RunSpec, errOf func(i int) error) *BatchError {
	var errs []*JobError
	for i, s := range specs {
		if err := errOf(i); err != nil {
			errs = append(errs, &JobError{Index: i, Topology: s.Topology, Workload: s.Workload, Err: err})
		}
	}
	if errs == nil {
		return nil
	}
	return &BatchError{Total: len(specs), Errs: errs}
}

// Unwrap exposes the individual job errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Errs))
	for i, je := range e.Errs {
		out[i] = je
	}
	return out
}
