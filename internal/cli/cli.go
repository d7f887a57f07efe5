// Package cli is the cobra command line: one dispatcher (Run) over ten
// subcommands that share one flag surface.  Every subcommand used to
// re-invent the same wiring — design/topology selection, instruction
// budgets, -paranoid, -timeout, the observability trio (-metrics-addr,
// -pprof-addr, -progress), event capture, the backend behind -server.  Here
// the flags are one value, Config, declared once in groups and parsed
// straight into the canonical spec.RunSpec, so "what a tool runs" and "what
// a server is asked to run" are the same serializable object.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
)

// groups selects which shared flag groups a subcommand binds.
type groups uint

const (
	// gDesign binds -design/-topology/-ghist/-policy.
	gDesign groups = 1 << iota
	// gWorkload binds -workload.
	gWorkload
	// gBudget binds -insts/-warmup/-seed.
	gBudget
	// gHost binds -host/-serialized/-sfb.
	gHost
	// gGuard binds -paranoid/-timeout.
	gGuard
	// gFaults binds -faults/-fault-period/-fault-seed/-fault-comps.
	gFaults
	// gEvents binds -events/-events-buf/-top-branches.
	gEvents
	// gMetrics binds -metrics-addr.
	gMetrics
	// gPprof binds -pprof-addr.
	gPprof
	// gProgress binds -progress (the periodic runner status line).
	gProgress
	// gServer binds -server (remote execution on a cobra-serve daemon).
	gServer
	// gDigest binds -print-digest (one digest=<sha256> provenance line per
	// executed run spec).
	gDigest
	// gIntervals binds -intervals/-interval-insts/-sparkline (windowed
	// interval telemetry: time-resolved IPC/MPKI/provider counters).
	gIntervals
	// gJobs binds -j (parallel simulations).
	gJobs

	gTelemetry = gMetrics | gPprof
)

// Config is the shared flag surface of every subcommand as one value.
// DefaultConfig holds the defaults; a subcommand adjusts its copy before
// binding (sweep's smaller -insts, trace's -workload gcc), then binds the
// groups it uses.  Fields of groups a subcommand does not bind keep their
// defaults.  -log-format and -version are bound for every subcommand.
type Config struct {
	LogFormat string
	Version   bool

	Design   string
	Topology string
	GHist    uint
	Policy   string

	Workload string

	Insts  uint64
	Warmup uint64
	Seed   uint64

	Host       string
	Serialized bool
	SFB        bool

	Paranoid bool
	Timeout  time.Duration

	Faults      string
	FaultPeriod uint64
	FaultSeed   uint64
	FaultComps  string

	Events      string
	EventsBuf   int
	TopBranches int

	MetricsAddr string
	PprofAddr   string
	Progress    time.Duration

	Server      string
	PrintDigest bool

	Intervals     string
	IntervalInsts uint64
	Sparkline     bool

	Jobs int
}

// DefaultConfig returns the flag defaults every subcommand starts from.
func DefaultConfig() Config {
	return Config{
		LogFormat: "text",
		Design:    "tage-l",
		GHist:     64,
		Policy:    "repair",
		Workload:  "dhrystone",
		Insts:     spec.DefaultInsts,
		Seed:      spec.DefaultSeed,
		Host:      "boom",
		FaultSeed: 1,
		Jobs:      runtime.GOMAXPROCS(0),
	}
}

// bind registers -log-format, -version and the selected groups on fs, each
// flag defaulting to c's current value and parsing into c.
func (c *Config) bind(fs *flag.FlagSet, g groups) {
	fs.StringVar(&c.LogFormat, "log-format", c.LogFormat, "diagnostic log format on stderr: text or json")
	fs.BoolVar(&c.Version, "version", c.Version, "print build information and exit")
	if g&gDesign != 0 {
		fs.StringVar(&c.Design, "design", c.Design, "paper design: tage-l, b2, tourney (ignored with -topology)")
		fs.StringVar(&c.Topology, "topology", c.Topology, "explicit topology string, e.g. \"GTAG3 > BTB2 > BIM2\"")
		fs.UintVar(&c.GHist, "ghist", c.GHist, "global history bits (with -topology)")
		fs.StringVar(&c.Policy, "policy", c.Policy, "GHR policy: repair, replay, none (§VI-B)")
	}
	if g&gWorkload != 0 {
		fs.StringVar(&c.Workload, "workload", c.Workload, "workload name (SPECint proxy, dhrystone, coremark, or an ISA kernel)")
	}
	if g&gBudget != 0 {
		fs.Uint64Var(&c.Insts, "insts", c.Insts, "architectural instructions to simulate")
		fs.Uint64Var(&c.Warmup, "warmup", c.Warmup, "instructions discarded before measurement")
		fs.Uint64Var(&c.Seed, "seed", c.Seed, "workload seed")
	}
	if g&gHost != 0 {
		fs.StringVar(&c.Host, "host", c.Host, "host core: boom (Table II) or inorder (scalar)")
		fs.BoolVar(&c.Serialized, "serialized", c.Serialized, "serialize fetch behind branches (§II-A)")
		fs.BoolVar(&c.SFB, "sfb", c.SFB, "enable short-forwards-branch predication (§VI-C)")
	}
	if g&gGuard != 0 {
		fs.BoolVar(&c.Paranoid, "paranoid", c.Paranoid, "arm the pipeline invariant checker; violations fail the run")
		fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "abort after this wall-clock budget (0 = none)")
	}
	if g&gFaults != 0 {
		fs.StringVar(&c.Faults, "faults", c.Faults, "fault kinds to inject (comma-separated, or 'all'; empty = none)")
		fs.Uint64Var(&c.FaultPeriod, "fault-period", c.FaultPeriod, "mean fault-injection interval in opportunities (0 = off)")
		fs.Uint64Var(&c.FaultSeed, "fault-seed", c.FaultSeed, "fault-injection decision-stream seed")
		fs.StringVar(&c.FaultComps, "fault-comps", c.FaultComps, "restrict injection to these component instances (comma-separated)")
	}
	if g&gEvents != 0 {
		fs.StringVar(&c.Events, "events", c.Events, "capture the cycle-level event trace to this file (.json = Chrome trace_event for Perfetto, otherwise compact binary for cobra-events)")
		fs.IntVar(&c.EventsBuf, "events-buf", c.EventsBuf, "event ring-buffer capacity (0 = default 65536; older events are dropped)")
		fs.IntVar(&c.TopBranches, "top-branches", c.TopBranches, "print the H2P table of the N hardest-to-predict branches")
	}
	if g&gMetrics != 0 {
		fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr, "serve live Prometheus-style metrics on this address (e.g. 127.0.0.1:9090)")
	}
	if g&gPprof != 0 {
		fs.StringVar(&c.PprofAddr, "pprof-addr", c.PprofAddr, "serve net/http/pprof (profiles + runtime trace) on this address")
	}
	if g&gProgress != 0 {
		fs.DurationVar(&c.Progress, "progress", c.Progress, "print a runner status line to stderr at this period (0 = off)")
	}
	if g&gServer != 0 {
		fs.StringVar(&c.Server, "server", c.Server, "execute on the cobra-serve daemon at this URL instead of in-process (results are byte-identical; retries ride out restarts)")
	}
	if g&gDigest != 0 {
		fs.BoolVar(&c.PrintDigest, "print-digest", c.PrintDigest, "emit one digest=<sha256> provenance line per executed run spec on stderr (matches the run_digest in serve logs and the journal)")
	}
	if g&gIntervals != 0 {
		fs.StringVar(&c.Intervals, "intervals", c.Intervals, "write windowed interval telemetry to this .ivl file (CBRAIVL1 binary; diff two with cobra-diff)")
		fs.Uint64Var(&c.IntervalInsts, "interval-insts", c.IntervalInsts, fmt.Sprintf("interval window size in instructions (0 = %d when -intervals or -sparkline turns sampling on)", interval.DefaultInsts))
		fs.BoolVar(&c.Sparkline, "sparkline", c.Sparkline, "render per-window IPC and MPKI sparklines after the run")
	}
	if g&gJobs != 0 {
		fs.IntVar(&c.Jobs, "j", c.Jobs, "parallel simulations (1 = serial; output identical for any value)")
	}
}

// Spec assembles the RunSpec the run-shaping flags describe: the Table I
// preset named by -design (or the explicit -topology with -ghist/-policy
// applied), the workload, budgets, host toggles and fault plan.  Guard
// settings and output shaping (events, attribution, intervals) are
// shapeOutput's.
// It does not canonicalize; callers that need the digest or defaults made
// explicit do that next.
func (c *Config) Spec() (*spec.RunSpec, error) {
	s := &spec.RunSpec{}
	if c.Topology != "" {
		s.Design = "custom"
		s.Topology = c.Topology
		s.Pipeline.GHistBits = c.GHist
	} else {
		d, err := spec.Preset(c.Design)
		if err != nil {
			return nil, err
		}
		*s = *d
	}
	switch c.Policy {
	case "repair", "replay", "none":
		s.Pipeline.GHRPolicy = c.Policy
	default:
		return nil, fmt.Errorf("unknown -policy %q (repair, replay, none)", c.Policy)
	}
	s.Workload = c.Workload
	s.Insts, s.Warmup, s.Seed = c.Insts, c.Warmup, c.Seed
	switch c.Host {
	case "boom", "inorder":
		s.Host = c.Host
	default:
		return nil, fmt.Errorf("unknown -host %q (boom, inorder)", c.Host)
	}
	s.SerializedFetch, s.SFB = c.Serialized, c.SFB
	if c.Faults != "" || c.FaultPeriod > 0 {
		if c.Faults == "" || c.FaultPeriod == 0 {
			return nil, fmt.Errorf("fault injection needs both -faults and -fault-period")
		}
		s.Faults = &spec.FaultPlan{
			Seed:   c.FaultSeed,
			Period: c.FaultPeriod,
			Kinds:  strings.Split(c.Faults, ","),
		}
		if c.FaultComps != "" {
			s.Faults.Components = strings.Split(c.FaultComps, ",")
		}
	}
	return s, nil
}

// shapeOutput stamps the guard and output-shaping flags onto a spec,
// whether Spec built it or it was loaded from a file: -paranoid arms the
// checker, -timeout sets the budget, -events turns capture on (with
// -events-buf when set), -top-branches turns attribution on, an explicit
// -interval-insts sets the window size, and -intervals/-sparkline without
// one turn sampling on at the default window.
func (c *Config) shapeOutput(s *spec.RunSpec) {
	s.Paranoid = s.Paranoid || c.Paranoid
	if c.Timeout > 0 {
		s.SetTimeout(c.Timeout)
	}
	if c.Events != "" {
		s.Observe.Events = true
		if c.EventsBuf != 0 {
			s.Observe.EventsBuf = c.EventsBuf
		}
	}
	if c.TopBranches > 0 {
		s.Observe.Attribution = true
	}
	if c.IntervalInsts > 0 {
		s.Observe.IntervalInsts = c.IntervalInsts
	} else if s.Observe.IntervalInsts == 0 && (c.Intervals != "" || c.Sparkline) {
		s.Observe.IntervalInsts = interval.DefaultInsts
	}
}

// telemetry wires -metrics-addr/-pprof-addr/-progress: it creates a metrics
// sink when anything needs one, starts the listeners and the progress
// reporter, and returns the sink (possibly nil) and a closer that stops
// them.  -progress prints the sink's status line to w at its period; under
// -server the daemon runs the simulations, so no local line is printed.
// Endpoint addresses are announced through log.
func (c *Config) telemetry(log *slog.Logger, w io.Writer) (*obs.Metrics, func(), error) {
	var (
		met     *obs.Metrics
		every   time.Duration
		closers []func() error
	)
	closeAll := func() {
		for _, stop := range closers {
			stop() //nolint:errcheck
		}
	}
	if c.Server == "" {
		every = c.Progress
	}
	if every > 0 || c.MetricsAddr != "" {
		met = obs.NewMetrics()
	}
	if c.MetricsAddr != "" {
		bound, close, err := obs.ServeMetrics(c.MetricsAddr, met)
		if err != nil {
			return nil, nil, fmt.Errorf("metrics listener: %w", err)
		}
		closers = append(closers, close)
		log.Info("serving metrics", "url", "http://"+bound+"/metrics")
	}
	if c.PprofAddr != "" {
		bound, close, err := obs.ServePprof(c.PprofAddr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		closers = append(closers, close)
		log.Info("serving pprof", "url", "http://"+bound+"/debug/pprof/")
	}
	if every > 0 {
		closers = append(closers, reportProgress(w, met, every))
	}
	return met, closeAll, nil
}

// reportProgress prints met's status line to w every period until the
// returned stop func is called; stop returns once the reporter has exited,
// so no line follows it.
func reportProgress(w io.Writer, met *obs.Metrics, every time.Duration) func() error {
	tick := time.NewTicker(every)
	done, idle := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(idle)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(w, met.ProgressLine())
			}
		}
	}()
	return func() error {
		close(done)
		<-idle
		return nil
	}
}

// progressPrinter renders a daemon's progress streams on w: one line
// per phase transition of each run, tagged with a short digest prefix, so
// the output stays readable piped into a log and unambiguous when grid
// points run concurrently.
type progressPrinter struct {
	w    io.Writer
	mu   sync.Mutex
	seen map[string]string // digest -> last phase printed
}

func (p *progressPrinter) update(ev interval.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.Done || p.seen[ev.Digest] == ev.Phase {
		return // the result that follows says it all
	}
	p.seen[ev.Digest] = ev.Phase
	id := strings.TrimPrefix(ev.Digest, "sha256:")
	if len(id) > 12 {
		id = id[:12]
	}
	line := fmt.Sprintf("run %s: %s phase=%s", id, ev.Status, ev.Phase)
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
	fmt.Fprintln(p.w, line)
}

// printCanonical is -print-spec and -print-set: v's canonical JSON on
// stdout, its digest on stderr.
func printCanonical(stdout, stderr io.Writer, v interface{ Digest() (string, error) }) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	digest, err := v.Digest()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(data))
	fmt.Fprintln(stderr, "digest:", digest)
	return nil
}

// writeFile creates path, fills it with write, and closes it, reporting the
// first error of the three: a failed Close loses data as surely as a failed
// write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
