package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/spec"
)

// command is one subcommand: the shared groups it binds, and setup, which
// adjusts the defaults, registers the subcommand's own flags, and returns
// the body to run once the flags are parsed.
type command struct {
	name    string
	summary string
	groups  groups
	setup   func(fs *flag.FlagSet, c *Config) func(*env) error
	// remoteProgress prints the daemon's progress frames under -server even
	// without -progress (a single run has no local status line to replace).
	remoteProgress bool
	// hardTimeout enforces -timeout by exiting the process: the subcommand
	// has no cooperative cancellation path.
	hardTimeout bool
}

// commands is the subcommand table, in `cobra -h` order.
var commands = []*command{
	{name: "sim", summary: "run one topology × workload and print the counters", setup: simCmd, remoteProgress: true,
		groups: gDesign | gWorkload | gBudget | gHost | gGuard | gFaults | gEvents | gTelemetry | gServer | gDigest | gIntervals},
	{name: "sweep", summary: "design-space sweeps as CSV", setup: sweepCmd,
		groups: gWorkload | gBudget | gHost | gGuard | gTelemetry | gProgress | gDigest | gJobs},
	{name: "experiments", summary: "regenerate the paper's tables and figures", setup: experimentsCmd,
		groups: gBudget | gGuard | gTelemetry | gProgress | gServer | gDigest | gJobs},
	{name: "compose", summary: "run a fleet file (incremental, cached)", setup: composeCmd,
		groups: gTelemetry | gServer | gDigest},
	{name: "serve", summary: "the simulation daemon", setup: serveCmd, groups: gPprof},
	{name: "diff", summary: "explain where two runs diverge", setup: diffCmd, hardTimeout: true,
		groups: gGuard | gServer | gDigest},
	{name: "events", summary: "dump, filter and convert event traces", setup: eventsCmd, hardTimeout: true,
		groups: gGuard},
	{name: "trace", summary: "branch-trace capture and trace-driven evaluation", setup: traceCmd, hardTimeout: true,
		groups: gDesign | gWorkload | gBudget | gGuard},
	{name: "area", summary: "Fig. 8/9 area breakdowns", setup: areaCmd, hardTimeout: true, groups: gGuard},
	{name: "diagram", summary: "Fig. 2/4/7 pipeline diagrams", setup: diagramCmd, hardTimeout: true, groups: gGuard},
}

// errDiverged is the outcome of a diff that found a divergence: reported on
// stdout already, exit status 2.
var errDiverged = errors.New("runs diverge")

// env is what a subcommand body runs with: the parsed Config, its operands,
// the output streams, and the startup the dispatcher did for it.
type env struct {
	*Config
	tool           string
	fs             *flag.FlagSet
	stdout, stderr io.Writer
	log            *slog.Logger
	met            *obs.Metrics    // nil unless -metrics-addr or local -progress
	be             backend.Backend // where runs execute: Local, or Remote under -server
}

// flags builds the subcommand's flag set over a fresh DefaultConfig.
func (cmd *command) flags(stderr io.Writer) (*flag.FlagSet, *Config, func(*env) error) {
	fs := flag.NewFlagSet("cobra-"+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := DefaultConfig()
	body := cmd.setup(fs, &c)
	c.bind(fs, cmd.groups)
	return fs, &c, body
}

// Run executes `cobra <args>`: args[0] names the subcommand, the rest are
// its flags and operands.  It returns the exit status: 0 on success and for
// -h, 1 when the run fails (reported as "cobra-<sub>: err" on stderr), 2 for
// a bad flag, a missing or unknown subcommand, and a diff that diverged.
// Every subcommand reports under its standalone tool name, cobra-<sub>.
func Run(args []string, stdout, stderr io.Writer) int {
	defer obs.DumpFlightOnPanic()
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var cmd *command
	for _, c := range commands {
		if c.name == args[0] {
			cmd = c
		}
	}
	if cmd == nil {
		switch args[0] {
		case "-h", "-help", "--help", "help":
			usage(stderr)
			return 0
		}
		fmt.Fprintf(stderr, "cobra: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	fs, c, body := cmd.flags(stderr)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	e := &env{Config: c, tool: fs.Name(), fs: fs, stdout: stdout, stderr: stderr}
	switch err := cmd.start(e, body); {
	case err == nil:
		return 0
	case errors.Is(err, errDiverged):
		return 2
	default:
		fmt.Fprintln(stderr, e.tool+":", err)
		return 1
	}
}

// start is the startup every subcommand shares, done once here: the
// structured logger, -version, the hard -timeout guard, telemetry, and the
// backend -server selects.  Then it runs body.
func (cmd *command) start(e *env, body func(*env) error) error {
	var err error
	if e.log, err = newLogger(e.stderr, e.LogFormat, e.tool); err != nil {
		return err
	}
	if e.Version {
		fmt.Fprintln(e.stdout, e.tool+" "+obs.BuildInfo().String())
		return nil
	}
	if cmd.hardTimeout && e.Timeout > 0 {
		guard := time.AfterFunc(e.Timeout, func() {
			fmt.Fprintf(e.stderr, "%s: timeout after %v\n", e.tool, e.Timeout)
			os.Exit(1)
		})
		defer guard.Stop()
	}
	met, closeTel, err := e.telemetry(e.log, e.stderr)
	if err != nil {
		return err
	}
	defer closeTel()
	e.met = met
	if e.Server == "" {
		e.be = &backend.Local{Metrics: met}
	} else {
		var onProgress func(interval.Progress)
		if cmd.remoteProgress || e.Progress > 0 {
			onProgress = (&progressPrinter{w: e.stderr, seen: map[string]string{}}).update
		}
		if e.be, err = backend.NewRemote(client.Config{BaseURL: e.Server, Log: e.log, OnProgress: onProgress}); err != nil {
			return err
		}
	}
	return body(e)
}

// Main runs the subcommand named by prefix followed by the process
// arguments, and exits with its status: the whole of every cobra binary's
// main.
func Main(prefix ...string) {
	os.Exit(Run(append(prefix, os.Args[1:]...), os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: cobra <subcommand> [flags] [operands]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun `cobra <subcommand> -h` for its flags; cobra-<subcommand> is the same command.")
}

// emitDigests writes the -print-digest provenance line for each spec on
// stderr: the same digest=<sha256:...> pair the serve logs and the run
// journal carry, so a local invocation and a daemon's records grep alike.
func (e *env) emitDigests(specs ...*spec.RunSpec) error {
	if !e.PrintDigest {
		return nil
	}
	for _, s := range specs {
		d, err := s.Digest()
		if err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "digest=%s\n", d)
	}
	return nil
}

// digests is the -print-digest sink handed to packages that expand their
// own run specs: stderr with the flag set, nil without.
func (e *env) digests() io.Writer {
	if e.PrintDigest {
		return e.stderr
	}
	return nil
}

// newLogger builds a slog logger writing format ("text" or "json") to w,
// with the tool name attached to every record.  Every record is also teed
// into the process flight recorder (armed here if it was not already), all
// levels included, so a crash dump carries the recent log context even when
// the visible log was quieter.
func newLogger(w io.Writer, format, tool string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
	}
	h = obs.NewFlightHandler(h, obs.EnableFlight(0))
	return slog.New(h).With("tool", tool), nil
}
