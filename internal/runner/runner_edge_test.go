package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cobra/internal/spec"
	"cobra/internal/uarch"
)

// gccSpec is a small healthy job.
func gccSpec(insts uint64) *spec.RunSpec {
	return &spec.RunSpec{Topology: "GBIM3 > BTB2 > BIM2", Pipeline: spec.Pipeline{GHistBits: 32},
		Workload: "gcc", Seed: 1, Insts: insts}
}

// stallSpec is a job whose core panics on its first cycles: a one-cycle
// watchdog fires before the pipeline can commit anything — a real model
// panic, the kind a buggy component or deadlock raises mid-simulation.
func stallSpec() *spec.RunSpec {
	core := uarch.DefaultConfig()
	core.WatchdogCycles = 1
	s := gccSpec(10_000)
	s.Core = &core
	return s
}

func TestRunEmptyBatch(t *testing.T) {
	res, err := RunSpecs(nil, Options{Workers: 4})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

func TestWorkersExceedJobs(t *testing.T) {
	res, err := RunSpecs(testSpecs(5_000)[:2], Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Outcome == nil || r.Outcome.Stats.Instructions < 5_000 {
			t.Fatalf("job %d incomplete: %+v", i, r)
		}
	}
}

// TestPanicIsolatedCollectAll: a panicking job becomes a JobError carrying
// the panic value and stack while every other job still returns its result.
func TestPanicIsolatedCollectAll(t *testing.T) {
	ok := gccSpec(10_000)
	res, err := RunSpecs([]*spec.RunSpec{ok, stallSpec(), ok}, Options{Workers: 2, Policy: CollectAll})
	var batch *BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(batch.Errs) != 1 || batch.Errs[0].Index != 1 || batch.Total != 3 {
		t.Fatalf("unexpected batch error shape: %v", batch)
	}
	var pe *PanicError
	if !errors.As(batch.Errs[0], &pe) {
		t.Fatalf("job error does not wrap *PanicError: %v", batch.Errs[0])
	}
	if !strings.Contains(pe.Error(), "no commit for") || !strings.Contains(string(pe.Stack), "(*Core).Run") {
		t.Errorf("panic error lost value or stack: %v", pe)
	}
	if !strings.Contains(batch.Errs[0].Error(), "job 1") {
		t.Errorf("job error does not identify the job: %v", batch.Errs[0])
	}
	for _, i := range []int{0, 2} {
		if res[i].Outcome == nil || res[i].Outcome.Stats.Instructions < 10_000 {
			t.Errorf("healthy job %d lost its result: %+v", i, res[i])
		}
	}
	if res[1].Outcome != nil {
		t.Error("failed job left a non-nil result")
	}
}

// TestPanicFailFast: under the default policy the recovered panic is the
// root-cause error, never a cancellation cascade.
func TestPanicFailFast(t *testing.T) {
	ok := gccSpec(200_000)
	res, err := RunSpecs([]*spec.RunSpec{ok, stallSpec(), ok, ok}, Options{Workers: 2})
	if res != nil {
		t.Error("fail-fast batch returned partial results")
	}
	var je *JobError
	if !errors.As(err, &je) || je.Index != 1 {
		t.Fatalf("want job 1's *JobError, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root cause reported as cancellation cascade: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("fail-fast error does not wrap the panic: %v", err)
	}
}

// TestCancelMidBatch: cancelling the batch context aborts in-flight jobs
// cooperatively and the batch reports the cancellation.
func TestCancelMidBatch(t *testing.T) {
	specs := make([]*spec.RunSpec, 4)
	for i := range specs {
		specs[i] = gccSpec(500_000_000)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunSpecs(specs, Options{Workers: 2, Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res != nil)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation not cooperative: batch ran %v", elapsed)
	}
}

// TestTimeoutWhileOthersComplete: a job's own TimeoutMS kills only the
// overrunning job; the rest of the batch completes and keeps its results.
func TestTimeoutWhileOthersComplete(t *testing.T) {
	small := gccSpec(10_000)
	overrun := gccSpec(2_000_000_000)
	overrun.TimeoutMS = 500
	specs := []*spec.RunSpec{overrun, small, small, small}
	res, err := RunSpecs(specs, Options{Workers: 2, Policy: CollectAll})
	var batch *BatchError
	if !errors.As(err, &batch) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(batch.Errs) != 1 || batch.Errs[0].Index != 0 {
		t.Fatalf("unexpected failures: %v", batch)
	}
	if !errors.Is(batch.Errs[0], context.DeadlineExceeded) {
		t.Fatalf("overrunning job error %v, want deadline exceeded", batch.Errs[0])
	}
	for i := 1; i < len(specs); i++ {
		if res[i].Outcome == nil || res[i].Outcome.Stats.Instructions < 10_000 {
			t.Errorf("job %d within budget lost its result: %+v", i, res[i])
		}
	}
}
