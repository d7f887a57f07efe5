package fleet

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"cobra/internal/backend"
	"cobra/internal/experiments"
	"cobra/internal/runner"
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
	// distinct digest of a stage executes).
	CacheDir string
	// Parallelism caps concurrent services within a stage and simulation
	// cells within a service (0 = GOMAXPROCS).  Outputs are bit-identical
	// for every value.
	Parallelism int
	// Force executes every distinct digest of a stage even when it has a
	// cached result, rewriting the cache.
	Force bool
	// Log, when non-nil, receives one service=... line per service as it
	// settles, in stage order.
	Log io.Writer
	// Digests, when non-nil, receives one digest=<sha256> line per
	// executed RunSpec, in stage order — the shared -print-digest surface.
	Digests io.Writer
}

// ServiceResult is one service's settled outcome.
type ServiceResult struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	// Cached reports that nothing was executed for the service: its output
	// came from the result cache or from a stage peer with its digest.
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

// Run executes the fleet stage by stage in dependency order.  In stage order
// each service is digested and looked up in the result cache; the first to
// miss a digest owns it, and the distinct missed digests execute and are
// cached through one runner.Map.  Every service then settles in stage order
// on the calling goroutine, a twin (a later service with an owner's digest)
// as a cached replay of its owner's result, so logs and -print-digest lines
// are identical for every Parallelism.  A failing service aborts the run
// once its stage has settled.
func (f *File) Run(ctx context.Context, opt Options) (*Result, error) {
	stages, err := f.Stages()
	if err != nil {
		return nil, err
	}
	be := opt.Backend
	if be == nil {
		be = &backend.Local{}
	}
	res := &Result{Name: f.Name, Stages: stages, Services: map[string]*ServiceResult{}}
	digests := map[string]string{}
	// Only the calling goroutine writes res.Services, and never while a
	// stage's misses execute, so a bundle reads its dependencies unlocked.
	getOutput := func(name string) (string, bool) {
		sr, ok := res.Services[name]
		if !ok {
			return "", false
		}
		return sr.Output, true
	}

	for _, stage := range stages {
		hits := make([]*ServiceResult, len(stage))
		var misses []*ServiceResult // one per distinct missed digest, named by its owner
		owner := map[string]int{}   // missed digest -> index into misses
		for i, name := range stage {
			svc := f.Services[name]
			d, err := f.Digest(svc, digests)
			if err != nil {
				return nil, err
			}
			digests[name] = d
			if !opt.Force {
				if sr, ok := replay(svc, d, opt.CacheDir, getOutput); ok {
					hits[i] = sr
					continue
				}
			}
			if _, ok := owner[d]; ok {
				continue
			}
			owner[d] = len(misses)
			misses = append(misses, &ServiceResult{Name: name, Digest: d})
			if err := printDigests(opt.Digests, svc); err != nil {
				return nil, fmt.Errorf("fleet: service %q: %w", name, err)
			}
		}

		errs := runner.Map(opt.Parallelism, len(misses), func(i int) error {
			sr := misses[i]
			svc := f.Services[sr.Name]
			var err error
			sr.Output, sr.IntervalDigests, err = f.exec(ctx, svc, be, opt.Parallelism, getOutput)
			if err == nil {
				err = store(opt.CacheDir, svc, sr)
			}
			if err != nil {
				return fmt.Errorf("fleet: service %q: %w", sr.Name, err)
			}
			return nil
		})

		for i, name := range stage {
			sr := hits[i]
			if sr == nil {
				j := owner[digests[name]]
				if errs[j] != nil {
					continue
				}
				if sr = misses[j]; sr.Name != name {
					twin := *sr
					twin.Name, twin.Cached = name, true
					sr = &twin
				}
			}
			res.Services[name] = sr
			res.Ordered = append(res.Ordered, sr)
			action := "executed"
			if sr.Cached {
				res.Skipped++
				action = "skipped"
			} else {
				res.Executed++
			}
			if opt.Log != nil {
				line := fmt.Sprintf("service=%s action=%s digest=%s", name, action, sr.Digest)
				if n := len(sr.IntervalDigests); n > 0 {
					line += fmt.Sprintf(" intervals=%d", n)
				}
				fmt.Fprintln(opt.Log, line)
			}
		}
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printDigests writes to w, when non-nil, one digest= line per RunSpec svc
// executes: its run, or its sweep's cells in expansion order.
func printDigests(w io.Writer, svc *Service) error {
	if w == nil || svc.Run == nil && svc.Sweep == nil {
		return nil
	}
	specs := []*spec.RunSpec{svc.Run}
	if svc.Sweep != nil {
		var err error
		if specs, err = svc.Sweep.Expand(); err != nil {
			return err
		}
	}
	for _, s := range specs {
		d, err := s.Digest()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "digest=%s\n", d)
	}
	return nil
}

// exec produces one service's output bytes, plus the interval-set content
// hashes of its runs (in expansion order) when its specs sample intervals.
func (f *File) exec(ctx context.Context, svc *Service, be backend.Backend, workers int, getOutput func(string) (string, bool)) (string, []string, error) {
	switch {
	case svc.Run != nil:
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
