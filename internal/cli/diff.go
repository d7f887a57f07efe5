package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cobra/internal/backend"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/sealed"
	"cobra/internal/serve"
	"cobra/internal/spec"
	"cobra/internal/stats"
)

// diffCmd is `cobra diff` (cobra-diff): align the interval telemetry of two
// runs, report the first window where they diverge, and — when it can
// replay both sides — bisect to the exact first divergent cycle and the
// component event behind it.  It is the "why do these two runs disagree"
// tool: point it at two spec files differing in one knob (a fault plan, a
// policy, a topology edit) and it answers with a window number, the metrics
// that moved, and the first cycle-level event the two executions emitted
// differently.
//
// Each side is, in order of recognition:
//
//   - a sha256:<hex> digest — the finished run's result, fetched from the
//     -server daemon's GET /v1/runs/{id};
//   - a CBRAIVL1 .ivl file written by cobra sim -intervals;
//   - a RunSpec JSON file — executed (in-process, or on -server) with
//     interval sampling forced on.
//
// Cycle-level bisection needs both sides to be spec files (digests and .ivl
// files cannot be replayed); it replays locally either way, because replay
// determinism is the point.
//
//	cobra diff a.ivl b.ivl
//	cobra diff base.json faulty.json
//	cobra diff -server http://localhost:8080 sha256:aaa... sha256:bbb...
//	cobra diff -no-bisect base.json faulty.json
//
// Exit status: 0 when the runs are identical, 2 when they diverge
// (errDiverged), 1 on error.  Output is byte-stable across invocations for
// the same inputs.
func diffCmd(fs *flag.FlagSet, c *Config) func(*env) error {
	fs.Uint64Var(&c.IntervalInsts, "interval-insts", c.IntervalInsts,
		fmt.Sprintf("window size forced onto spec operands (0 = keep the spec's own setting, defaulting to %d)", interval.DefaultInsts))
	noBisect := fs.Bool("no-bisect", false, "stop at the window report; skip the cycle-level event bisection")
	bisectBuf := fs.Int("bisect-buf", 1<<20, "events captured per bisection probe (larger = fewer replays)")
	return func(e *env) error {
		if e.fs.NArg() != 2 {
			e.fs.Usage()
			return fmt.Errorf("need exactly two operands (.ivl files, spec files, or sha256: digests); got %d", e.fs.NArg())
		}
		a, err := resolve(e, e.fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := resolve(e, e.fs.Arg(1))
		if err != nil {
			return err
		}

		w := e.stdout
		fmt.Fprintf(w, "a: %s (%d windows, every %d insts, %s)\n", a.label, len(a.set.Windows), a.set.IntervalInsts, a.set.Hash)
		fmt.Fprintf(w, "b: %s (%d windows, every %d insts, %s)\n", b.label, len(b.set.Windows), b.set.IntervalInsts, b.set.Hash)

		d, err := interval.Compare(a.set, b.set)
		if err != nil {
			return err
		}
		if d.Same() {
			fmt.Fprintf(w, "no divergence: %d windows identical\n", d.LenA)
			return nil
		}

		if d.FirstWindow < 0 {
			fmt.Fprintf(w, "windows identical over the common prefix; a has %d windows, b has %d\n", d.LenA, d.LenB)
		} else {
			fmt.Fprintf(w, "first divergent window: %d (starts at cycle %d, inst %d)\n",
				d.FirstWindow, d.FirstCycle, d.FirstInst)
			fmt.Fprintf(w, "divergent windows: %d of %d compared (a: %d windows, b: %d windows)\n",
				d.Diverged, min(d.LenA, d.LenB), d.LenA, d.LenB)
			t := &stats.Table{Title: "window metric deltas", Headers: []string{"metric", "a", "b", "delta"}}
			for _, m := range d.Deltas {
				t.AddRow(m.Name, fmt.Sprintf("%d", m.A), fmt.Sprintf("%d", m.B), fmt.Sprintf("%+d", m.Delta()))
			}
			fmt.Fprint(w, t)
		}

		if !*noBisect {
			if a.spec == nil || b.spec == nil {
				fmt.Fprintln(w, "bisect: skipped (needs two spec files; .ivl files and digests cannot be replayed)")
			} else if err := bisect(w, a.spec, b.spec, *bisectBuf); err != nil {
				return err
			}
		}
		return errDiverged
	}
}

// side is one resolved comparand: its interval set, plus the replayable spec
// when the operand was a spec file.
type side struct {
	label string
	set   *interval.Set
	spec  *spec.RunSpec // nil unless the operand was a spec file
}

// resolve turns one operand into a side.  Spec operands are executed through
// the selected backend with interval sampling forced on.
func resolve(e *env, arg string) (*side, error) {
	if strings.HasPrefix(arg, "sha256:") {
		r, ok := e.be.(*backend.Remote)
		if !ok {
			return nil, fmt.Errorf("%s: digest operands need -server to fetch intervals from", arg)
		}
		st, err := r.Client().Get(context.Background(), arg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		if st.Status != "done" {
			return nil, fmt.Errorf("%s: run is %s, not done", arg, st.Status)
		}
		var res serve.Result
		if err := json.Unmarshal(st.Result, &res); err != nil {
			return nil, fmt.Errorf("%s: corrupt result payload: %w", arg, err)
		}
		if res.Intervals == nil {
			return nil, fmt.Errorf("%s: run did not record intervals (set observe.interval_insts)", arg)
		}
		return &side{label: arg, set: res.Intervals}, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	set, err := interval.Decode(data)
	if err == nil {
		return &side{label: arg, set: set}, nil
	}
	if !errors.Is(err, sealed.ErrMagic) {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	s, err := spec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: not a CBRAIVL1 file and not a run spec: %w", arg, err)
	}
	e.shapeOutput(s)
	if s.Observe.IntervalInsts == 0 {
		s.Observe.IntervalInsts = interval.DefaultInsts
	}
	if err := s.Canonicalize(); err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	if err := e.emitDigests(s); err != nil {
		return nil, err
	}
	out, err := e.be.Run(context.Background(), s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	if out.Intervals == nil {
		return nil, fmt.Errorf("%s: run produced no interval telemetry (server too old?)", arg)
	}
	return &side{label: arg, set: out.Intervals, spec: s}, nil
}

// rangeCapture keeps the first cap events at or after cycle lo and counts the
// rest — a prefix-intact probe, so a mismatch inside the stored prefix is
// found directly and an identical overflowed prefix tells the bisection
// exactly where to move its window.
type rangeCapture struct {
	lo    uint64
	limit int
	evs   []obs.Event
	total uint64
}

func (r *rangeCapture) Event(ev *obs.Event) {
	if ev.Cycle < r.lo {
		return
	}
	r.total++
	if len(r.evs) < r.limit {
		r.evs = append(r.evs, *ev)
	}
}

// replay executes one spec locally with a prefix-capture observer attached.
func replay(s *spec.RunSpec, lo uint64, limit int) (*rangeCapture, error) {
	rc := &rangeCapture{lo: lo, limit: limit, evs: make([]obs.Event, 0, limit)}
	if _, err := spec.Exec(s, spec.Attach{Observer: rc}); err != nil {
		return nil, err
	}
	return rc, nil
}

// bisect replays both specs with progressively advanced event capture until
// it isolates the first event the two executions emitted differently, then
// prints to w the structured explanation (component, PC, sequence number,
// cycle).  Replay cycles are absolute — they include warmup, unlike the
// measurement-relative window bounds above.
func bisect(w io.Writer, sa, sb *spec.RunSpec, limit int) error {
	fmt.Fprintf(w, "bisect: replaying both specs with event capture (%d events per probe)\n", limit)
	var lo uint64
	for probe := 1; ; probe++ {
		ra, err := replay(sa, lo, limit)
		if err != nil {
			return fmt.Errorf("bisect: replaying a: %w", err)
		}
		rb, err := replay(sb, lo, limit)
		if err != nil {
			return fmt.Errorf("bisect: replaying b: %w", err)
		}
		n := min(len(ra.evs), len(rb.evs))
		for i := 0; i < n; i++ {
			if ra.evs[i] != rb.evs[i] {
				fmt.Fprintf(w, "bisect: first divergent event at replay cycle %d (probe %d, capture from cycle %d)\n",
					min(ra.evs[i].Cycle, rb.evs[i].Cycle), probe, lo)
				fmt.Fprintf(w, "  a: %s\n", formatEvent(&ra.evs[i]))
				fmt.Fprintf(w, "  b: %s\n", formatEvent(&rb.evs[i]))
				explain(w, &ra.evs[i], &rb.evs[i])
				return nil
			}
		}
		if len(ra.evs) != len(rb.evs) {
			// Identical up to the shorter stream's end; the longer stream's
			// next event exists only on one side — that is the divergence.
			longer, name := ra, "a"
			if len(rb.evs) > len(ra.evs) {
				longer, name = rb, "b"
			}
			ev := &longer.evs[n]
			fmt.Fprintf(w, "bisect: first divergent event at replay cycle %d: present only in %s\n", ev.Cycle, name)
			fmt.Fprintf(w, "  %s: %s\n", name, formatEvent(ev))
			fmt.Fprintf(w, "bisect: component=%s pc=%#x seq=%d cycle=%d\n", compName(ev), ev.PC, ev.Seq, ev.Cycle)
			return nil
		}
		if ra.total <= uint64(limit) && rb.total <= uint64(limit) {
			fmt.Fprintln(w, "bisect: event streams identical — divergence is not visible at event granularity")
			return nil
		}
		// Both prefixes full and identical: advance the capture window past
		// the common prefix and probe again.
		next := ra.evs[len(ra.evs)-1].Cycle
		if next == lo {
			return fmt.Errorf("bisect: more than %d identical events in cycle %d; raise -bisect-buf", limit, lo)
		}
		lo = next
	}
}

// formatEvent renders one event the way cobra events prints records.
func formatEvent(ev *obs.Event) string {
	s := fmt.Sprintf("cycle %d %s %s pc=%#x seq=%d", ev.Cycle, ev.Kind, compName(ev), ev.PC, ev.Seq)
	if ev.Slot >= 0 {
		s += fmt.Sprintf(" slot=%d", ev.Slot)
	}
	if ev.MetaSum != 0 {
		s += fmt.Sprintf(" metasum=%#x", ev.MetaSum)
	}
	return s
}

func compName(ev *obs.Event) string {
	if ev.Comp == "" {
		return "(frontend)"
	}
	return ev.Comp
}

// explain prints to w the structured one-line root-cause summary for a pair
// of events that occupy the same stream position but differ.
func explain(w io.Writer, a, b *obs.Event) {
	comp := compName(a)
	if bc := compName(b); bc != comp {
		comp = comp + "|" + bc
	}
	pc := fmt.Sprintf("%#x", a.PC)
	if b.PC != a.PC {
		pc += fmt.Sprintf("|%#x", b.PC)
	}
	fmt.Fprintf(w, "bisect: component=%s pc=%s seq=%d cycle=%d\n", comp, pc, a.Seq, min(a.Cycle, b.Cycle))
}
