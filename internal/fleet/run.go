package fleet

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"cobra/internal/backend"
	"cobra/internal/experiments"
	"cobra/internal/spec"
)

// Options shape one fleet execution.  None of them enter service digests:
// they decide where and how fast services run, never what bytes they
// produce.
type Options struct {
	// Backend executes every run and sweep cell and every experiment grid
	// that needs no in-process handles.  nil means in-process.
	Backend backend.Backend
	// CacheDir holds the local result cache; "" disables caching (every
	// service executes).
	CacheDir string
	// Parallelism caps concurrent services within a stage and simulation
	// cells within a service (0 = GOMAXPROCS).  Outputs are bit-identical
	// for every value.
	Parallelism int
	// Force executes every service even when its digest has a cached
	// result, rewriting the cache.
	Force bool
	// Log, when non-nil, receives one service=... line per scheduled
	// service as it settles.
	Log io.Writer
	// Digests, when non-nil, receives one digest=<sha256> line per
	// executed RunSpec — the shared -print-digest surface.
	Digests io.Writer
}

// ServiceResult is one service's settled outcome.
type ServiceResult struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	// Cached reports that the output came from the result cache — the
	// service's cone was unchanged, so nothing was executed for it.
	Cached bool   `json:"cached"`
	Output string `json:"-"`
	// IntervalDigests are the content hashes of the interval-telemetry sets
	// the service's runs produced (one per cell, in expansion order), for
	// services whose specs sample intervals.  Cached entries replay the
	// digests of the original execution.
	IntervalDigests []string `json:"interval_digests,omitempty"`
}

// Result is a fleet execution's summary.
type Result struct {
	Name     string                    `json:"fleet,omitempty"`
	Stages   [][]string                `json:"stages"`
	Services map[string]*ServiceResult `json:"-"`
	Ordered  []*ServiceResult          `json:"services"`
	Executed int                       `json:"executed"`
	Skipped  int                       `json:"skipped"`
}

// Run executes the fleet: stages in dependency order, each service either
// replayed from the result cache (digest hit, settled in stage order on the
// calling goroutine) or executed on the backend and cached, the misses of a
// stage fanned out across workers.  The first failing service aborts after
// its stage settles.
func (f *File) Run(ctx context.Context, opt Options) (*Result, error) {
	stages, err := f.Stages()
	if err != nil {
		return nil, err
	}
	be := opt.Backend
	if be == nil {
		be = &backend.Local{}
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Name: f.Name, Stages: stages, Services: map[string]*ServiceResult{}}
	digests := map[string]string{}
	var mu sync.Mutex // guards res, digests, and the Log/Digests writers

	// getOutput reads a settled dependency's output under the lock: bundles
	// resolve in a later stage than everything they name, but their stage
	// peers are concurrently writing other keys of the same map.
	getOutput := func(name string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		sr, ok := res.Services[name]
		if !ok {
			return "", false
		}
		return sr.Output, true
	}

	emitDigests := func(specs ...*spec.RunSpec) error {
		if opt.Digests == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		for _, s := range specs {
			d, err := s.Digest()
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Digests, "digest=%s\n", d)
		}
		return nil
	}

	for _, stage := range stages {
		// Digests are sequential (cheap, need dep digests); execution fans out.
		for _, name := range stage {
			d, err := f.Digest(f.Services[name], digests)
			if err != nil {
				return nil, err
			}
			digests[name] = d
		}
		sem := make(chan struct{}, workers)
		var (
			wg   sync.WaitGroup
			errs []error
		)
		// settle records one service's outcome: on the stage loop for a
		// cache hit, on the service's goroutine for a miss.
		settle := func(sr *ServiceResult, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("fleet: service %q: %w", sr.Name, err))
				return
			}
			res.Services[sr.Name] = sr
			if sr.Cached {
				res.Skipped++
			} else {
				res.Executed++
			}
			if opt.Log != nil {
				action := "executed"
				if sr.Cached {
					action = "skipped"
				}
				line := fmt.Sprintf("service=%s action=%s digest=%s", sr.Name, action, sr.Digest)
				if n := len(sr.IntervalDigests); n > 0 {
					line += fmt.Sprintf(" intervals=%d", n)
				}
				fmt.Fprintln(opt.Log, line)
			}
		}
		for _, name := range stage {
			svc, digest := f.Services[name], digests[name]
			// A hit needs no worker: only a miss takes a slot and a goroutine.
			if !opt.Force {
				if sr, ok := replay(svc, digest, opt.CacheDir, getOutput); ok {
					settle(sr, nil)
					continue
				}
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				sr := &ServiceResult{Name: svc.Name, Digest: digest}
				var err error
				sr.Output, sr.IntervalDigests, err = f.exec(ctx, svc, be, workers, getOutput, emitDigests)
				if err == nil {
					err = store(opt.CacheDir, svc, sr)
				}
				settle(sr, err)
			}()
		}
		wg.Wait()
		if len(errs) > 0 {
			sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
			return nil, errors.Join(errs...)
		}
	}
	for _, stage := range stages {
		for _, name := range stage {
			res.Ordered = append(res.Ordered, res.Services[name])
		}
	}
	return res, nil
}

// exec produces one service's output bytes, plus the interval-set content
// hashes of its runs (in expansion order) when its specs sample intervals.
func (f *File) exec(ctx context.Context, svc *Service, be backend.Backend, workers int, getOutput func(string) (string, bool), emitDigests func(...*spec.RunSpec) error) (string, []string, error) {
	switch {
	case svc.Run != nil:
		if err := emitDigests(svc.Run); err != nil {
			return "", nil, err
		}
		out, err := be.Run(ctx, svc.Run)
		if err != nil {
			return "", nil, err
		}
		var ivls []string
		if out.Intervals != nil {
			ivls = []string{out.Intervals.Hash}
		}
		return fmt.Sprintf("design=%s topology=%q workload=%s\n%s",
			svc.Run.Design, svc.Run.Topology, svc.Run.Workload, out.Stats), ivls, nil

	case svc.Sweep != nil:
		specs, err := svc.Sweep.Expand()
		if err != nil {
			return "", nil, err
		}
		if err := emitDigests(specs...); err != nil {
			return "", nil, err
		}
		outs, err := backend.All(ctx, be, specs, workers)
		if err != nil {
			return "", nil, err
		}
		var ivls []string
		for _, out := range outs {
			if out.Intervals != nil {
				ivls = append(ivls, out.Intervals.Hash)
			}
		}
		csv, err := sweepCSV(specs, outs)
		return csv, ivls, err

	case svc.Experiment != nil:
		e := svc.Experiment
		out, err := experiments.Render(e.ID, experiments.Config{
			Insts: e.Insts, Warmup: e.Warmup, Seed: e.Seed,
			Parallelism: workers, Backend: be,
		})
		return out, nil, err

	case svc.Bundle != nil:
		out, err := bundle(svc.Bundle, getOutput)
		return out, nil, err
	}
	return "", nil, fmt.Errorf("service has no kind")
}

// bundle assembles a bundle's output: one headed section per named service.
// Bundles run in a later stage than everything they name, so the outputs
// are settled.
func bundle(names []string, getOutput func(string) (string, bool)) (string, error) {
	parts := make([]string, 0, len(names))
	for _, name := range names {
		out, ok := getOutput(name)
		if !ok {
			return "", fmt.Errorf("bundled service %q has no result", name)
		}
		parts = append(parts, "## "+name+"\n\n"+strings.TrimRight(out, "\n")+"\n")
	}
	return strings.Join(parts, "\n"), nil
}

// sweepCSV renders a sweep grid as CSV, one row per cell in expansion order.
// Columns are the dynamic counters every backend can report; the static
// storage/area/energy columns of cobra-sweep need in-process pipeline
// handles a remote outcome cannot carry, and a fleet must render the same
// bytes on every backend.
func sweepCSV(specs []*spec.RunSpec, outs []*spec.Outcome) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write([]string{"design", "topology", "workload", "host",
		"instructions", "cycles", "ipc", "mpki", "accuracy", "bubble_frac"})
	for i, s := range specs {
		r := outs[i].Stats
		w.Write([]string{
			s.Design, s.Topology, s.Workload, s.Host,
			fmt.Sprint(r.Instructions), fmt.Sprint(r.Cycles),
			fmt.Sprintf("%.4f", r.IPC()),
			fmt.Sprintf("%.3f", r.MPKI()),
			fmt.Sprintf("%.5f", r.Accuracy()),
			fmt.Sprintf("%.4f", r.BubbleFrac()),
		})
	}
	w.Flush()
	return b.String(), w.Error()
}
