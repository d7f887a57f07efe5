package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"cobra"
	"cobra/internal/interval"
	"cobra/internal/stats"
)

// eventsCmd is `cobra events` (cobra-events): dump, filter, and convert the
// compact binary event traces written by cobra sim -events.
//
//	cobra events -i trace.bin                     # text dump
//	cobra events -i trace.bin -stats              # per-kind / per-component counts
//	cobra events -i trace.bin -kind mispredict -n 20
//	cobra events -i trace.bin -comp TAGE3 -since 1000 -until 2000
//	cobra events -i trace.bin -pc 0x10014
//	cobra events -i trace.bin -chrome trace.json  # convert for Perfetto
//	cobra events -i trace.bin -paranoid           # validate stream invariants
func eventsCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	var (
		input    = fs.String("i", "", "binary event trace to read (required; written by cobra-sim -events)")
		kind     = fs.String("kind", "", "keep only events of this kind (predict, fire, mispredict, repair, update, redirect, squash)")
		comp     = fs.String("comp", "", "keep only events from this sub-component instance (e.g. TAGE3)")
		pcFilter = fs.String("pc", "", "keep only events whose fetch PC matches (hex or decimal)")
		since    = fs.Uint64("since", 0, "keep only events at or after this cycle")
		until    = fs.Uint64("until", math.MaxUint64, "keep only events at or before this cycle")
		limit    = fs.Int("n", 0, "print at most N events (0 = all)")
		doStats  = fs.Bool("stats", false, "print per-kind and per-component counts instead of records")
		byWindow = fs.Uint64("by-window", 0, "with -stats: bucket the counts into windows of N cycles (time-resolved view of the trace)")
		chrome   = fs.String("chrome", "", "convert the (filtered) events to Chrome trace_event JSON at this path")
	)
	return func(e *env) error {
		if *input == "" {
			e.fs.Usage()
			return fmt.Errorf("-i is required")
		}
		in, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer in.Close()
		events, err := cobra.ReadBinaryEvents(in)
		if err != nil {
			return fmt.Errorf("reading %s: %w", *input, err)
		}

		if e.Paranoid {
			if err := validate(events); err != nil {
				return fmt.Errorf("%s: %w", *input, err)
			}
		}

		keep, err := buildFilter(*kind, *comp, *pcFilter, *since, *until)
		if err != nil {
			return err
		}
		filtered := events[:0:0]
		for i := range events {
			if keep(&events[i]) {
				filtered = append(filtered, events[i])
			}
		}

		if *chrome != "" {
			if err := writeFile(*chrome, func(w io.Writer) error {
				return cobra.WriteChromeTrace(w, filtered)
			}); err != nil {
				return err
			}
			fmt.Fprintf(e.stderr, "wrote %d events to %s\n", len(filtered), *chrome)
			return nil
		}
		if *doStats {
			if *byWindow > 0 {
				return printWindowed(e.stdout, filtered, *byWindow)
			}
			printStats(e.stdout, filtered)
			return nil
		}
		if *byWindow > 0 {
			return fmt.Errorf("-by-window needs -stats")
		}
		n := len(filtered)
		if *limit > 0 && *limit < n {
			n = *limit
		}
		for i := 0; i < n; i++ {
			printEvent(e.stdout, &filtered[i])
		}
		if n < len(filtered) {
			fmt.Fprintf(e.stdout, "... %d more (raise -n)\n", len(filtered)-n)
		}
		return nil
	}
}

// validate checks the stream invariants a well-formed single-run trace obeys:
// cycles never decrease, every kind is known, and component-scoped kinds
// carry a component name while frontend kinds do not.
func validate(events []cobra.Event) error {
	var prev uint64
	for i := range events {
		ev := &events[i]
		if ev.Kind.String() == "invalid" {
			return fmt.Errorf("event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Cycle < prev {
			return fmt.Errorf("event %d: cycle %d precedes cycle %d (stream not monotone)", i, ev.Cycle, prev)
		}
		prev = ev.Cycle
		frontend := ev.Kind == cobra.EventRedirect || ev.Kind == cobra.EventSquash
		if frontend && ev.Comp != "" {
			return fmt.Errorf("event %d: frontend record %s carries component %q", i, ev.Kind, ev.Comp)
		}
		if !frontend && ev.Comp == "" {
			return fmt.Errorf("event %d: component record %s has no component", i, ev.Kind)
		}
	}
	return nil
}

func buildFilter(kind, comp, pc string, since, until uint64) (func(*cobra.Event) bool, error) {
	wantKind := -1
	if kind != "" {
		k, ok := cobra.ParseEventKind(kind)
		if !ok {
			return nil, fmt.Errorf("unknown -kind %q", kind)
		}
		wantKind = int(k)
	}
	var wantPC uint64
	havePC := false
	if pc != "" {
		v, err := strconv.ParseUint(pc, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -pc %q: %v", pc, err)
		}
		wantPC, havePC = v, true
	}
	return func(ev *cobra.Event) bool {
		if wantKind >= 0 && int(ev.Kind) != wantKind {
			return false
		}
		if comp != "" && ev.Comp != comp {
			return false
		}
		if havePC && ev.PC != wantPC {
			return false
		}
		return ev.Cycle >= since && ev.Cycle <= until
	}, nil
}

func printEvent(w io.Writer, ev *cobra.Event) {
	comp := ev.Comp
	if comp == "" {
		comp = "(frontend)"
	}
	slot := "-"
	if ev.Slot >= 0 {
		slot = strconv.Itoa(int(ev.Slot))
	}
	fmt.Fprintf(w, "cycle %-10d %-10s %-12s pc=%#-12x seq=%-8d slot=%-2s", ev.Cycle, ev.Kind, comp, ev.PC, ev.Seq, slot)
	if ev.Dur > 0 {
		fmt.Fprintf(w, " dur=%d", ev.Dur)
	}
	if ev.MetaSum != 0 {
		fmt.Fprintf(w, " metasum=%#x", ev.MetaSum)
	}
	fmt.Fprintln(w)
}

// printWindowed buckets the (filtered) trace into fixed cycle windows through
// the interval subsystem and prints one row per window — the time-resolved
// companion to the flat -stats view.
func printWindowed(w io.Writer, events []cobra.Event, every uint64) error {
	set, err := interval.FromEvents(events, every)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d events in %d windows of %d cycles\n", len(events), len(set.Windows), every)
	t := &stats.Table{Title: "events by window",
		Headers: []string{"window", "cycles", "predicts", "mispredicts", "squashes", "redirects", "repairs"}}
	for i := range set.Windows {
		win := &set.Windows[i]
		var predicts uint64
		for _, p := range win.Providers {
			predicts += p.Branches
		}
		t.AddRow(fmt.Sprintf("%d", win.Index),
			fmt.Sprintf("%d..%d", win.StartCycle, win.EndCycle),
			fmt.Sprintf("%d", predicts),
			fmt.Sprintf("%d", win.Mispredicts),
			fmt.Sprintf("%d", win.Squashes),
			fmt.Sprintf("%d", win.Redirects),
			fmt.Sprintf("%d", win.HistoryRepairs))
	}
	fmt.Fprint(w, t)
	return nil
}

func printStats(w io.Writer, events []cobra.Event) {
	byKind := map[string]uint64{}
	byComp := map[string]uint64{}
	var first, last uint64
	for i := range events {
		ev := &events[i]
		byKind[ev.Kind.String()]++
		comp := ev.Comp
		if comp == "" {
			comp = "(frontend)"
		}
		byComp[comp]++
		if i == 0 || ev.Cycle < first {
			first = ev.Cycle
		}
		if ev.Cycle > last {
			last = ev.Cycle
		}
	}
	fmt.Fprintf(w, "%d events, cycles %d..%d\n", len(events), first, last)
	t := &stats.Table{Title: "by kind", Headers: []string{"kind", "events"}}
	for _, k := range stats.SortedKeys(byKind) {
		t.AddRowf(k, byKind[k])
	}
	fmt.Fprint(w, t)
	t = &stats.Table{Title: "by component", Headers: []string{"component", "events"}}
	for _, k := range stats.SortedKeys(byComp) {
		t.AddRowf(k, byComp[k])
	}
	fmt.Fprint(w, t)
}
