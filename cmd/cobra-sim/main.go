// Command cobra-sim composes a predictor topology, attaches it to the
// BOOM-like core, runs a workload, and prints the performance counters.
//
// Usage:
//
//	cobra-sim -design tage-l -workload gcc -insts 2000000
//	cobra-sim -topology "GTAG3 > BTB2 > BIM2" -ghist 16 -workload mcf
//	cobra-sim -design tourney -workload dhrystone -policy replay -sfb
//	cobra-sim -design tage-l -workload gcc -paranoid -timeout 60s
//	cobra-sim -design tage-l -workload gcc -events trace.json -top-branches 10
//	cobra-sim -design b2 -workload gcc -print-spec > run.json
//	cobra-sim -spec run.json
//	cobra-sim -design b2 -workload gcc -server http://localhost:8080
//
// Where the run executes is one flag: without -server the spec runs
// in-process, with it the same canonical spec runs on a cobra-serve daemon
// through the unified backend — byte-identical results either way, because
// the spec digest pins the simulation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cobra/internal/cli"
	"cobra/internal/client"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

func main() { cli.Main("cobra-sim", run) }

func run() error {
	f := cli.AddRunFlags(flag.CommandLine,
		cli.GDesign|cli.GWorkload|cli.GBudget|cli.GHost|cli.GGuard|cli.GFaults|cli.GEvents|cli.GTelemetry|cli.GServer|cli.GDigest|cli.GIntervals)
	specPath := flag.String("spec", "", "run the RunSpec JSON file at this path (run-shaping flags are ignored; -events/-top-branches still apply)")
	printSpec := flag.Bool("print-spec", false, "print the canonical RunSpec JSON to stdout and its digest to stderr, then exit without running")
	verbose := flag.Bool("v", false, "print extended counters")
	flag.Parse()
	if exit, err := f.Handle("cobra-sim"); err != nil || exit {
		return err
	}

	var (
		s   *spec.RunSpec
		err error
	)
	if *specPath != "" {
		s, err = cli.LoadSpec(*specPath)
	} else {
		s, err = f.Spec()
	}
	if err != nil {
		return err
	}
	// Output-shaping flags apply even to a spec loaded from a file.
	if *f.Events != "" {
		s.Observe.Events = true
		if *f.EventsBuf != 0 {
			s.Observe.EventsBuf = *f.EventsBuf
		}
	}
	if *f.TopBranches > 0 {
		s.Observe.Attribution = true
	}
	f.ApplyIntervals(s)
	if err := s.Canonicalize(); err != nil {
		return err
	}
	if *printSpec {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		digest, err := s.Digest()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		fmt.Fprintln(os.Stderr, "digest:", digest)
		return nil
	}
	if w := f.DigestWriter(); w != nil {
		digest, err := s.Digest()
		if err != nil {
			return err
		}
		cli.EmitDigest(w, digest)
	}

	met, closeTel, err := f.Telemetry("cobra-sim")
	if err != nil {
		return err
	}
	defer closeTel()

	// The one local/remote fork left: remote runs get a live progress line,
	// and remote results cannot carry the in-process attribution profile.
	var pl *progressLine
	var onProgress func(client.Progress)
	if f.ServerURL() != "" {
		if *f.TopBranches > 0 {
			return fmt.Errorf("-top-branches needs the in-process attribution profile; run without -server")
		}
		pl = newProgressLine(os.Stderr)
		onProgress = pl.update
	}
	be, remote, err := f.ResolveBackend("cobra-sim", met, onProgress)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if remote && f.Timeout != nil && *f.Timeout > 0 {
		// In-process runs enforce the spec's own TimeoutMS inside Exec; a
		// remote conversation needs a client-side bound on the whole
		// submit/poll exchange too.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *f.Timeout)
		defer cancel()
	}
	out, err := be.Run(ctx, s)
	if pl != nil {
		pl.finish()
	}
	if err != nil {
		return err
	}

	res := out.Stats
	where := ""
	if remote {
		where = " server=" + be.Name()
	}
	fmt.Printf("design=%s topology=%q workload=%s%s\n", s.Design, s.Topology, s.Workload, where)
	fmt.Println(res)
	if *verbose {
		printVerbose(res)
		printProviders(res)
	}
	if out.Profile != nil && *f.TopBranches > 0 {
		fmt.Print(out.Profile.Table(*f.TopBranches))
	}
	if *f.Events != "" {
		if err := writeEvents(*f.Events, out.Events, out.EventsTotal); err != nil {
			return err
		}
	}
	if path := f.IntervalsPath(); path != "" {
		if out.Intervals == nil {
			return fmt.Errorf("-intervals: run produced no interval telemetry")
		}
		if err := interval.WriteFile(path, out.Intervals); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "intervals: wrote %d windows to %s (%s)\n",
			len(out.Intervals.Windows), path, out.Intervals.Hash)
	}
	if f.WantSparkline() {
		if out.Intervals == nil {
			return fmt.Errorf("-sparkline: run produced no interval telemetry")
		}
		fmt.Print(sparklines(out.Intervals))
	}
	return nil
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
	lo := func(vs []float64) float64 {
		m := vs[0]
		for _, v := range vs[1:] {
			m = min(m, v)
		}
		return m
	}
	hi := func(vs []float64) float64 {
		m := vs[0]
		for _, v := range vs[1:] {
			m = max(m, v)
		}
		return m
	}
	const width = 60
	var b strings.Builder
	fmt.Fprintf(&b, "ipc  %s  [%.3f … %.3f] over %d windows of %d insts\n",
		interval.Spark(ipc, width), lo(ipc), hi(ipc), len(set.Windows), set.IntervalInsts)
	fmt.Fprintf(&b, "mpki %s  [%.3f … %.3f]\n",
		interval.Spark(mpki, width), lo(mpki), hi(mpki))
	return b.String()
}

// progressLine renders the daemon's progress stream as a single live status
// line.  On a terminal it overwrites itself with \r; piped into a log it
// degrades to one line per phase transition so CI output stays readable.
type progressLine struct {
	w         *os.File
	tty       bool
	lastPhase string
	wrote     bool
}

func newProgressLine(w *os.File) *progressLine {
	st, err := w.Stat()
	return &progressLine{w: w, tty: err == nil && st.Mode()&os.ModeCharDevice != 0}
}

func (p *progressLine) update(ev client.Progress) {
	if ev.Done {
		return // the result line that follows says it all
	}
	line := fmt.Sprintf("%s: phase=%s", ev.Status, ev.Phase)
	if ev.QueuePos > 0 {
		line += fmt.Sprintf(" queue_pos=%d", ev.QueuePos)
	}
	if ev.Cycles > 0 {
		line += fmt.Sprintf(" cycles=%d insts=%d", ev.Cycles, ev.Insts)
		if ev.TargetInsts > 0 {
			line += fmt.Sprintf("/%d", ev.TargetInsts)
		}
		if ev.InstsPerSec > 0 {
			line += fmt.Sprintf(" (%.2gM insts/s)", ev.InstsPerSec/1e6)
		}
	}
	if w := ev.Window; w != nil {
		line += fmt.Sprintf(" window=%d ipc=%.3f mpki=%.2f", w.Index, w.IPC(), w.MPKI())
	}
	if p.tty {
		fmt.Fprintf(p.w, "\r\033[K%s", line)
		p.wrote = true
		return
	}
	if ev.Phase != p.lastPhase { // non-interactive: one line per phase
		fmt.Fprintln(p.w, line)
		p.lastPhase = ev.Phase
	}
}

// finish clears the live line so the result renders on a clean row.
func (p *progressLine) finish() {
	if p.tty && p.wrote {
		fmt.Fprint(p.w, "\r\033[K")
	}
}

// writeEvents exports the captured event trace to path: Chrome trace_event
// JSON for .json files (load in chrome://tracing or ui.perfetto.dev), the
// compact binary format otherwise (dump/filter with cobra-events).
func writeEvents(path string, evs []obs.Event, total uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = obs.WriteChrome(f, evs)
	} else {
		err = obs.WriteBinary(f, evs)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if total > uint64(len(evs)) {
		fmt.Fprintf(os.Stderr, "events: ring overflowed; kept newest %d of %d (raise -events-buf)\n",
			len(evs), total)
	}
	fmt.Fprintf(os.Stderr, "events: wrote %d records to %s\n", len(evs), path)
	return nil
}

// printProviders reports which sub-component supplied the final direction
// for committed branches (the provider hierarchy of §IV-A in action).
func printProviders(res *stats.Sim) {
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
	fmt.Print(t)
}

func printVerbose(res *stats.Sim) {
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
	fmt.Print(t)
}
