package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

// simCmd is `cobra sim` (cobra-sim): compose a predictor topology, attach it
// to the BOOM-like core, run a workload, and print the performance counters.
//
//	cobra sim -design tage-l -workload gcc -insts 2000000
//	cobra sim -topology "GTAG3 > BTB2 > BIM2" -ghist 16 -workload mcf
//	cobra sim -design tourney -workload dhrystone -policy replay -sfb
//	cobra sim -design tage-l -workload gcc -paranoid -timeout 60s
//	cobra sim -design tage-l -workload gcc -events trace.json -top-branches 10
//	cobra sim -design b2 -workload gcc -print-spec > run.json
//	cobra sim -spec run.json
//	cobra sim -design b2 -workload gcc -server http://localhost:8080
//
// Where the run executes is one flag: without -server the spec runs
// in-process, with it the same canonical spec runs on a cobra-serve daemon
// through the unified backend — byte-identical results either way, because
// the spec digest pins the simulation.
func simCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	specPath := fs.String("spec", "", "run the RunSpec JSON file at this path (run-shaping flags are ignored; -paranoid/-timeout/-events/-top-branches still apply)")
	printSpec := fs.Bool("print-spec", false, "print the canonical RunSpec JSON to stdout and its digest to stderr, then exit without running")
	verbose := fs.Bool("v", false, "print extended counters")
	return func(e *env) error {
		var (
			s   *spec.RunSpec
			err error
		)
		if *specPath != "" {
			s, err = loadSpec(*specPath)
		} else {
			s, err = e.Spec()
		}
		if err != nil {
			return err
		}
		e.shapeOutput(s)
		if err := s.Canonicalize(); err != nil {
			return err
		}
		if *printSpec {
			return printCanonical(e.stdout, e.stderr, s)
		}
		if err := e.emitDigests(s); err != nil {
			return err
		}

		ctx := context.Background()
		where := ""
		if e.Server != "" {
			// Remote results cannot carry the in-process attribution
			// profile, and the remote conversation needs a client-side
			// bound (in-process runs enforce the spec's TimeoutMS in Exec).
			if e.TopBranches > 0 {
				return fmt.Errorf("-top-branches needs the in-process attribution profile; run without -server")
			}
			if e.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, e.Timeout)
				defer cancel()
			}
			where = " server=" + e.be.Name()
		}
		out, err := e.be.Run(ctx, s)
		if err != nil {
			return err
		}

		res := out.Stats
		fmt.Fprintf(e.stdout, "design=%s topology=%q workload=%s%s\n", s.Design, s.Topology, s.Workload, where)
		fmt.Fprintln(e.stdout, res)
		if *verbose {
			printVerbose(e.stdout, res)
			printProviders(e.stdout, res)
		}
		if out.Profile != nil && e.TopBranches > 0 {
			fmt.Fprint(e.stdout, out.Profile.Table(e.TopBranches))
		}
		if e.Events != "" {
			if err := writeEvents(e.stderr, e.Events, out.Events, out.EventsTotal); err != nil {
				return err
			}
		}
		if e.Intervals != "" {
			if out.Intervals == nil {
				return fmt.Errorf("-intervals: run produced no interval telemetry")
			}
			if err := interval.WriteFile(e.Intervals, out.Intervals); err != nil {
				return err
			}
			fmt.Fprintf(e.stderr, "intervals: wrote %d windows to %s (%s)\n",
				len(out.Intervals.Windows), e.Intervals, out.Intervals.Hash)
		}
		if e.Sparkline {
			if out.Intervals == nil {
				return fmt.Errorf("-sparkline: run produced no interval telemetry")
			}
			fmt.Fprint(e.stdout, sparklines(out.Intervals))
		}
		return nil
	}
}

// sparklines renders the per-window IPC and MPKI trajectories as one-line
// unicode sparklines with min/max annotations — the ten-second "did anything
// interesting happen over time" view of a run.
func sparklines(set *interval.Set) string {
	if len(set.Windows) == 0 {
		return "intervals: no complete windows (run shorter than one interval)\n"
	}
	ipc := make([]float64, len(set.Windows))
	mpki := make([]float64, len(set.Windows))
	for i := range set.Windows {
		ipc[i] = set.Windows[i].IPC()
		mpki[i] = set.Windows[i].MPKI()
	}
	const width = 60
	var b strings.Builder
	fmt.Fprintf(&b, "ipc  %s  [%.3f … %.3f] over %d windows of %d insts\n",
		interval.Spark(ipc, width), slices.Min(ipc), slices.Max(ipc), len(set.Windows), set.IntervalInsts)
	fmt.Fprintf(&b, "mpki %s  [%.3f … %.3f]\n",
		interval.Spark(mpki, width), slices.Min(mpki), slices.Max(mpki))
	return b.String()
}

// writeEvents exports the captured event trace to path: Chrome trace_event
// JSON for .json files (load in chrome://tracing or ui.perfetto.dev), the
// compact binary format otherwise (dump/filter with cobra events).  The
// summary goes to w.
func writeEvents(w io.Writer, path string, evs []obs.Event, total uint64) error {
	if err := writeFile(path, func(f io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return obs.WriteChrome(f, evs)
		}
		return obs.WriteBinary(f, evs)
	}); err != nil {
		return err
	}
	if total > uint64(len(evs)) {
		fmt.Fprintf(w, "events: ring overflowed; kept newest %d of %d (raise -events-buf)\n",
			len(evs), total)
	}
	fmt.Fprintf(w, "events: wrote %d records to %s\n", len(evs), path)
	return nil
}

// printProviders reports which sub-component supplied the final direction
// for committed branches (the provider hierarchy of §IV-A in action).
func printProviders(w io.Writer, res *stats.Sim) {
	if len(res.ProviderHits) == 0 {
		return
	}
	t := &stats.Table{Title: "direction providers (committed branches)",
		Headers: []string{"component", "branches", "share"}}
	var total uint64
	for _, k := range stats.SortedKeys(res.ProviderHits) {
		total += res.ProviderHits[k]
	}
	for _, k := range stats.SortedKeys(res.ProviderHits) {
		n := res.ProviderHits[k]
		t.AddRow(k, fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", float64(n)/float64(total)*100))
	}
	fmt.Fprint(w, t)
}

func printVerbose(w io.Writer, res *stats.Sim) {
	t := &stats.Table{Headers: []string{"counter", "value"}}
	t.AddRowf("cycles", res.Cycles)
	t.AddRowf("instructions", res.Instructions)
	t.AddRowf("branches", res.Branches)
	t.AddRowf("jumps", res.Jumps)
	t.AddRowf("indirect/returns", res.IndirectJumps)
	t.AddRowf("mispredicts", res.Mispredicts)
	t.AddRowf("  direction", res.DirMispredicts)
	t.AddRowf("  target", res.TgtMispredicts)
	t.AddRowf("fetch bubbles", res.FetchBubbles)
	t.AddRowf("redirect flushes", res.RedirectFlushes)
	t.AddRowf("history repairs", res.HistoryRepairs)
	t.AddRowf("fetch replays", res.FetchReplays)
	fmt.Fprint(w, t)
}

// loadSpec reads and parses a RunSpec JSON file.
func loadSpec(path string) (*spec.RunSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return spec.Parse(data)
}
