// Package cli is the shared flag surface of the cobra command-line tools.
// Every tool used to re-invent the same wiring — design/topology selection,
// instruction budgets, -paranoid, -timeout, the observability trio
// (-metrics-addr, -pprof-addr, -progress), event capture — each with its own
// drift.  Here the flags are declared once, grouped, and parsed straight
// into the canonical spec.RunSpec, so "what a tool runs" and "what a server
// is asked to run" are the same serializable object.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
)

// Groups selects which flag groups a tool registers.
type Groups uint

const (
	// GDesign registers -design/-topology/-ghist/-policy.
	GDesign Groups = 1 << iota
	// GWorkload registers -workload.
	GWorkload
	// GBudget registers -insts/-warmup/-seed.
	GBudget
	// GHost registers -host/-serialized/-sfb.
	GHost
	// GGuard registers -paranoid/-timeout.
	GGuard
	// GFaults registers -faults/-fault-period/-fault-seed/-fault-comps.
	GFaults
	// GEvents registers -events/-events-buf/-top-branches.
	GEvents
	// GTelemetry registers -metrics-addr/-pprof-addr.
	GTelemetry
	// GProgress registers -progress (the periodic runner status line).
	GProgress
	// GServer registers -server (remote execution on a cobra-serve daemon).
	GServer
	// GDigest registers -print-digest (the shared digest=<sha256> provenance
	// line every spec-expanding tool emits the same way).
	GDigest
	// GIntervals registers -intervals/-interval-insts/-sparkline (windowed
	// interval telemetry: time-resolved IPC/MPKI/provider counters).
	GIntervals
)

// RunFlags holds the registered run-shaping flags.  Fields for groups a tool
// did not register stay nil and contribute their zero value to the spec.
// The embedded Base (-log-format, -version) is always registered; call
// Handle after flag.Parse to honor it.
type RunFlags struct {
	*Base

	Design   *string
	Topology *string
	GHist    *uint
	Policy   *string

	Workload *string

	Insts  *uint64
	Warmup *uint64
	Seed   *uint64

	Host       *string
	Serialized *bool
	SFB        *bool

	Paranoid *bool
	Timeout  *time.Duration

	Faults      *string
	FaultPeriod *uint64
	FaultSeed   *uint64
	FaultComps  *string

	Events      *string
	EventsBuf   *int
	TopBranches *int

	MetricsAddr *string
	PprofAddr   *string
	Progress    *time.Duration

	Server      *string
	PrintDigest *bool

	Intervals     *string
	IntervalInsts *uint64
	Sparkline     *bool
}

// AddRunFlags registers the selected groups on fs (pass flag.CommandLine for
// a tool's top level) and returns the handle that later builds the RunSpec.
func AddRunFlags(fs *flag.FlagSet, g Groups) *RunFlags {
	f := &RunFlags{Base: AddBaseFlags(fs)}
	if g&GDesign != 0 {
		f.Design = fs.String("design", "tage-l", "paper design: tage-l, b2, tourney (ignored with -topology)")
		f.Topology = fs.String("topology", "", "explicit topology string, e.g. \"GTAG3 > BTB2 > BIM2\"")
		f.GHist = fs.Uint("ghist", 64, "global history bits (with -topology)")
		f.Policy = fs.String("policy", "repair", "GHR policy: repair, replay, none (§VI-B)")
	}
	if g&GWorkload != 0 {
		f.Workload = fs.String("workload", "dhrystone", "workload name (SPECint proxy, dhrystone, coremark, or an ISA kernel)")
	}
	if g&GBudget != 0 {
		f.Insts = fs.Uint64("insts", spec.DefaultInsts, "architectural instructions to simulate")
		f.Warmup = fs.Uint64("warmup", 0, "instructions discarded before measurement")
		f.Seed = fs.Uint64("seed", spec.DefaultSeed, "workload seed")
	}
	if g&GHost != 0 {
		f.Host = fs.String("host", "boom", "host core: boom (Table II) or inorder (scalar)")
		f.Serialized = fs.Bool("serialized", false, "serialize fetch behind branches (§II-A)")
		f.SFB = fs.Bool("sfb", false, "enable short-forwards-branch predication (§VI-C)")
	}
	if g&GGuard != 0 {
		f.Paranoid = fs.Bool("paranoid", false, "arm the pipeline invariant checker; violations fail the run")
		f.Timeout = fs.Duration("timeout", 0, "abort after this wall-clock budget (0 = none)")
	}
	if g&GFaults != 0 {
		f.Faults = fs.String("faults", "", "fault kinds to inject (comma-separated, or 'all'; empty = none)")
		f.FaultPeriod = fs.Uint64("fault-period", 0, "mean fault-injection interval in opportunities (0 = off)")
		f.FaultSeed = fs.Uint64("fault-seed", 1, "fault-injection decision-stream seed")
		f.FaultComps = fs.String("fault-comps", "", "restrict injection to these component instances (comma-separated)")
	}
	if g&GEvents != 0 {
		f.Events = fs.String("events", "", "capture the cycle-level event trace to this file (.json = Chrome trace_event for Perfetto, otherwise compact binary for cobra-events)")
		f.EventsBuf = fs.Int("events-buf", 0, "event ring-buffer capacity (0 = default 65536; older events are dropped)")
		f.TopBranches = fs.Int("top-branches", 0, "print the H2P table of the N hardest-to-predict branches")
	}
	if g&GTelemetry != 0 {
		f.MetricsAddr = fs.String("metrics-addr", "", "serve live Prometheus-style metrics on this address (e.g. 127.0.0.1:9090)")
		f.PprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof (profiles + runtime trace) on this address")
	}
	if g&GProgress != 0 {
		f.Progress = fs.Duration("progress", 0, "print a runner status line to stderr at this period (0 = off)")
	}
	if g&GServer != 0 {
		f.Server = fs.String("server", "", "execute on the cobra-serve daemon at this URL instead of in-process (results are byte-identical; retries ride out restarts)")
	}
	if g&GDigest != 0 {
		f.PrintDigest = fs.Bool("print-digest", false, "emit one digest=<sha256> provenance line per executed run spec on stderr (matches the run_digest in serve logs and the journal)")
	}
	if g&GIntervals != 0 {
		f.Intervals = fs.String("intervals", "", "write windowed interval telemetry to this .ivl file (CBRAIVL1 binary; diff two with cobra-diff)")
		f.IntervalInsts = fs.Uint64("interval-insts", 0, fmt.Sprintf("interval window size in instructions (0 = %d when -intervals or -sparkline turns sampling on)", interval.DefaultInsts))
		f.Sparkline = fs.Bool("sparkline", false, "render per-window IPC and MPKI sparklines after the run")
	}
	return f
}

// ServerURL returns the -server flag's value ("" = run in-process).
func (f *RunFlags) ServerURL() string { return str(f.Server) }

// DigestWriter returns the sink -print-digest selects: stderr when the flag
// is set, nil otherwise.  Tools hand it to whatever expands their run specs
// so every digest=<sha256> line renders through EmitDigest's one format.
func (f *RunFlags) DigestWriter() io.Writer {
	if f.PrintDigest != nil && *f.PrintDigest {
		return os.Stderr
	}
	return nil
}

// EmitDigest writes the shared provenance line for one run spec digest —
// the same digest=<sha256:...> key=value pair the serve logs and the run
// journal carry, so a local invocation and a daemon's records grep alike.
// A nil writer drops the line, letting callers pass DigestWriter() through
// unconditionally.
func EmitDigest(w io.Writer, digest string) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "digest=%s\n", digest)
}

// ResolveBackend turns the -server flag into the execution backend the tool
// runs on: a backend.Remote for a non-empty URL (onProgress, when non-nil,
// receives the daemon's live progress frames), a backend.Local over met
// otherwise.  remote reports which way it went, for the few capabilities a
// wire result cannot carry.
func (f *RunFlags) ResolveBackend(tool string, met *obs.Metrics, onProgress func(client.Progress)) (be backend.Backend, remote bool, err error) {
	url := f.ServerURL()
	if url == "" {
		return &backend.Local{Metrics: met}, false, nil
	}
	logger, err := f.Logger(tool)
	if err != nil {
		return nil, false, err
	}
	r, err := backend.NewRemote(client.Config{BaseURL: url, Log: logger, OnProgress: onProgress})
	if err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// SetDefault overrides a registered flag's default before Parse — tools with
// grid-shaped work (many points per invocation) use smaller per-point budgets
// than the single-run tools.  Panics on an unknown flag or unparsable value:
// both are programming errors in the tool, not user input.
func SetDefault(fs *flag.FlagSet, name, value string) {
	fl := fs.Lookup(name)
	if fl == nil {
		panic("cli: SetDefault on unregistered flag -" + name)
	}
	if err := fl.Value.Set(value); err != nil {
		panic("cli: SetDefault(-" + name + ", " + value + "): " + err.Error())
	}
	fl.DefValue = value
}

func str(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// Spec assembles the RunSpec the parsed flags describe: the Table I preset
// named by -design (or the explicit -topology with -ghist/-policy applied),
// the workload, budgets, host toggles, guard settings, fault plan, and
// observer configuration.  It does not canonicalize; callers that need the
// digest or defaults made explicit do that next.
func (f *RunFlags) Spec() (*spec.RunSpec, error) {
	s := &spec.RunSpec{}
	if f.Design != nil {
		if topo := str(f.Topology); topo != "" {
			s.Design = "custom"
			s.Topology = topo
			if f.GHist != nil {
				s.Pipeline.GHistBits = *f.GHist
			}
		} else {
			d, err := Preset(*f.Design)
			if err != nil {
				return nil, err
			}
			*s = *d
		}
		if f.Policy != nil {
			switch *f.Policy {
			case "repair", "replay", "none":
				s.Pipeline.GHRPolicy = *f.Policy
			default:
				return nil, fmt.Errorf("unknown -policy %q (repair, replay, none)", *f.Policy)
			}
		}
	}
	if f.Workload != nil {
		s.Workload = *f.Workload
	}
	if f.Insts != nil {
		s.Insts = *f.Insts
	}
	if f.Warmup != nil {
		s.Warmup = *f.Warmup
	}
	if f.Seed != nil {
		s.Seed = *f.Seed
	}
	if f.Host != nil {
		switch *f.Host {
		case "boom", "inorder":
			s.Host = *f.Host
		default:
			return nil, fmt.Errorf("unknown -host %q (boom, inorder)", *f.Host)
		}
		s.SerializedFetch = *f.Serialized
		s.SFB = *f.SFB
	}
	if f.Paranoid != nil {
		s.Paranoid = s.Paranoid || *f.Paranoid
	}
	if f.Timeout != nil {
		s.SetTimeout(*f.Timeout)
	}
	if f.Faults != nil && (*f.Faults != "" || *f.FaultPeriod > 0) {
		if *f.Faults == "" || *f.FaultPeriod == 0 {
			return nil, fmt.Errorf("fault injection needs both -faults and -fault-period")
		}
		s.Faults = &spec.FaultPlan{
			Seed:   *f.FaultSeed,
			Period: *f.FaultPeriod,
			Kinds:  strings.Split(*f.Faults, ","),
		}
		if cs := str(f.FaultComps); cs != "" {
			s.Faults.Components = strings.Split(cs, ",")
		}
	}
	if f.Events != nil && *f.Events != "" {
		s.Observe.Events = true
		s.Observe.EventsBuf = *f.EventsBuf
	}
	if f.TopBranches != nil && *f.TopBranches > 0 {
		s.Observe.Attribution = true
	}
	f.ApplyIntervals(s)
	return s, nil
}

// ApplyIntervals stamps the interval-telemetry flags onto a spec: an explicit
// -interval-insts sets the window size directly, while -intervals/-sparkline
// without one turn sampling on at the default window.  Exported separately
// from Spec so tools that load spec files (rather than build specs from
// flags) can apply the same output-shaping overrides.
func (f *RunFlags) ApplyIntervals(s *spec.RunSpec) {
	if f.IntervalInsts != nil && *f.IntervalInsts > 0 {
		s.Observe.IntervalInsts = *f.IntervalInsts
	} else if s.Observe.IntervalInsts == 0 && (str(f.Intervals) != "" || f.Sparkline != nil && *f.Sparkline) {
		s.Observe.IntervalInsts = interval.DefaultInsts
	}
}

// IntervalsPath returns the -intervals flag's value ("" = no .ivl output).
func (f *RunFlags) IntervalsPath() string { return str(f.Intervals) }

// WantSparkline reports whether -sparkline asked for terminal sparklines.
func (f *RunFlags) WantSparkline() bool { return f.Sparkline != nil && *f.Sparkline }

// Preset returns the named Table I design point as a spec (see spec.Preset).
func Preset(name string) (*spec.RunSpec, error) { return spec.Preset(name) }

// Telemetry wires the -metrics-addr/-pprof-addr/-progress flags: it creates
// a metrics sink when anything needs one, starts the listeners and the
// progress reporter, and returns the sink (possibly nil) and a closer that
// stops them.  -progress prints the sink's status line to stderr at its
// period; under -server the daemon runs the simulations, so no local line is
// printed (the tool shows the daemon's per-run progress instead).  Endpoint
// addresses are announced on stderr.
func (f *RunFlags) Telemetry(tool string) (*obs.Metrics, func(), error) {
	var (
		met     *obs.Metrics
		every   time.Duration
		closers []func() error
	)
	closeAll := func() {
		for _, c := range closers {
			c() //nolint:errcheck
		}
	}
	if f.Progress != nil && f.ServerURL() == "" {
		every = *f.Progress
	}
	if every > 0 || str(f.MetricsAddr) != "" {
		met = obs.NewMetrics()
	}
	if addr := str(f.MetricsAddr); addr != "" {
		bound, close, err := obs.ServeMetrics(addr, met)
		if err != nil {
			return nil, nil, fmt.Errorf("metrics listener: %w", err)
		}
		closers = append(closers, close)
		slog.Info("serving metrics", "tool", tool, "url", "http://"+bound+"/metrics")
	}
	if addr := str(f.PprofAddr); addr != "" {
		bound, close, err := obs.ServePprof(addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		closers = append(closers, close)
		slog.Info("serving pprof", "tool", tool, "url", "http://"+bound+"/debug/pprof/")
	}
	if every > 0 {
		closers = append(closers, reportProgress(met, every))
	}
	return met, closeAll, nil
}

// reportProgress prints met's status line to stderr every period until the
// returned stop func is called; stop returns once the reporter has exited,
// so no line follows it.
func reportProgress(met *obs.Metrics, every time.Duration) func() error {
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
				fmt.Fprintln(os.Stderr, met.ProgressLine())
			}
		}
	}()
	return func() error {
		close(done)
		<-idle
		return nil
	}
}

// Main wraps a tool's entry point with the shared error convention
// ("tool: error" on stderr, exit status 1) and the crash post-mortem: a
// panic on the main goroutine dumps the flight recorder before the process
// dies with the original panic.
func Main(tool string, run func() error) {
	defer obs.DumpFlightOnPanic()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// ExitAfter arms the hard wall-clock guard used by tools without a
// cooperative cancellation path: after d the process reports the timeout and
// exits non-zero.  A zero or negative d is a no-op.
func ExitAfter(tool string, d time.Duration) {
	if d <= 0 {
		return
	}
	time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "%s: timeout after %v\n", tool, d)
		os.Exit(1)
	})
}

// LoadSpec reads and parses a RunSpec JSON file.
func LoadSpec(path string) (*spec.RunSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return spec.Parse(data)
}
