package cobra

import (
	"fmt"
	"io"
	"time"

	"cobra/internal/area"
	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/commercial"
	"cobra/internal/compose"
	"cobra/internal/faults"
	"cobra/internal/isa"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/program"
	"cobra/internal/spec"
	"cobra/internal/stats"
	"cobra/internal/trace"
	"cobra/internal/uarch"
	"cobra/internal/workloads"
)

// Re-exported building blocks of the public API.
type (
	// Pipeline is a composed predictor pipeline (§IV).
	Pipeline = compose.Pipeline
	// PipelineOptions configures the generated management structures.
	PipelineOptions = compose.Options
	// GHRPolicy selects the speculative-history repair policy (§VI-B).
	GHRPolicy = compose.GHRPolicy
	// Topology is a parsed predictor topology.
	Topology = compose.Topology
	// CoreConfig describes the host core (Table II).
	CoreConfig = uarch.Config
	// Core is the assembled BOOM-like machine.
	Core = uarch.Core
	// Result carries the performance counters of a run.
	Result = stats.Sim
	// Breakdown is an area report (Fig. 8 / Fig. 9).
	Breakdown = area.Breakdown
	// FetchConfig is the fetch-packet geometry shared by predictor and core.
	FetchConfig = pred.Config
	// Program is a synthetic workload image.
	Program = program.Program
	// TraceResult summarizes a trace-driven evaluation (§II-B comparison).
	TraceResult = trace.SimResult
	// CommercialSystem is a Table III commercial-core proxy.
	CommercialSystem = commercial.System
	// InvariantError is a paranoid-mode invariant violation report.
	InvariantError = compose.InvariantError
	// FaultPlan describes a deterministic fault-injection campaign; wire it
	// into a pipeline via PipelineOptions.Wrap (see internal/faults).
	FaultPlan = faults.Plan
	// FaultKind is a bitmask of injectable fault classes.
	FaultKind = faults.Kind
	// FaultRecord describes one injected fault.
	FaultRecord = faults.Record
	// Event is one observability record (predict/fire/mispredict/repair/
	// update/redirect/squash); see internal/obs.
	Event = obs.Event
	// EventKind discriminates Event records.
	EventKind = obs.Kind
	// Observer receives Events; wire one in via PipelineOptions.Observer or
	// RunConfig.Observer.
	Observer = obs.Observer
	// Tracer is the ring-buffered Observer behind -events.
	Tracer = obs.Tracer
	// BranchProfile accumulates per-PC misprediction attribution (H2P).
	BranchProfile = obs.BranchProfile
	// BranchStat is one PC's row in a BranchProfile.
	BranchStat = obs.BranchStat
	// Metrics is the live telemetry sink behind -metrics-addr.
	Metrics = obs.Metrics
)

// Event kinds: the five §III-E interface events plus the frontend records.
const (
	EventPredict    = obs.KPredict
	EventFire       = obs.KFire
	EventMispredict = obs.KMispredict
	EventRepair     = obs.KRepair
	EventUpdate     = obs.KUpdate
	EventRedirect   = obs.KRedirect
	EventSquash     = obs.KSquash
)

// ParseEventKind parses an event-kind name ("predict", "fire", ...).
func ParseEventKind(s string) (EventKind, bool) { return obs.ParseKind(s) }

// NewTracer returns a ring-buffered event tracer; capacity 0 means the
// default (65536 events).  When the ring overflows, the oldest events are
// dropped and Dropped()/Total() account for the loss.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewBranchProfile returns an empty per-PC misprediction profile; wire it in
// via RunConfig.Profile (or Observe.Attribution in a Spec) and render the
// hardest branches with its Table method.
func NewBranchProfile() *BranchProfile { return obs.NewBranchProfile() }

// NewMetrics returns a live telemetry sink with the uptime clock started;
// all of its methods are safe for concurrent use.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// WriteChromeTrace writes events as Chrome trace_event JSON, loadable in
// chrome://tracing or ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []Event) error { return obs.WriteChrome(w, events) }

// WriteBinaryEvents writes events in the compact binary format read by
// cobra-events and ReadBinaryEvents.
func WriteBinaryEvents(w io.Writer, events []Event) error { return obs.WriteBinary(w, events) }

// ReadBinaryEvents reads a compact binary event stream produced by
// WriteBinaryEvents, validating its magic, record framing and checksum.
func ReadBinaryEvents(r io.Reader) ([]Event, error) { return obs.ReadBinary(r) }

// ServeMetrics starts an HTTP listener on addr serving m's Prometheus text
// exposition at / and /metrics.  It returns the bound address (useful with
// ":0") and a closer that releases the port.
func ServeMetrics(addr string, m *Metrics) (string, func() error, error) {
	return obs.ServeMetrics(addr, m)
}

// ServePprof starts an HTTP listener on addr exposing net/http/pprof (CPU
// and heap profiles, goroutine dumps, and the runtime execution tracer).  It
// returns the bound address and a closer that releases the port.
func ServePprof(addr string) (string, func() error, error) { return obs.ServePprof(addr) }

// FlightRecorder is the process-wide bounded ring of recent structured
// records (log lines, span completions, errors); see internal/obs.
type FlightRecorder = obs.FlightRecorder

// EnableFlightRecorder arms the always-on flight recorder with a ring of
// capacity records (0 = default 1024) and returns it.  Idempotent: once
// armed, later calls return the existing ring.  The cobra tools arm it
// automatically through their shared logger; embedders call this to get
// crash context from DumpFlightOnPanic or /debug/flight.
func EnableFlightRecorder(capacity int) *FlightRecorder { return obs.EnableFlight(capacity) }

// Injectable fault classes (see internal/faults for semantics).
const (
	FaultCorruptMeta   = faults.CorruptMeta
	FaultDropUpdate    = faults.DropUpdate
	FaultDupUpdate     = faults.DupUpdate
	FaultDelayFire     = faults.DelayFire
	FaultDelayRepair   = faults.DelayRepair
	FaultFlipDirection = faults.FlipDirection
	FaultFlipTarget    = faults.FlipTarget
	AllFaultKinds      = faults.AllKinds
)

// ParseFaultKinds parses a comma/pipe-separated fault-kind list ("all",
// "corrupt-meta,drop-update") into a FaultKind mask.
func ParseFaultKinds(s string) (FaultKind, error) { return faults.ParseKinds(s) }

// GHR repair policies (§VI-B).
const (
	GHRRepair       = compose.GHRRepair
	GHRRepairReplay = compose.GHRRepairReplay
	GHRNoRepair     = compose.GHRNoRepair
)

// Design names a predictor design point: a topology plus management
// options.  The three constructors below reproduce Table I.
type Design struct {
	Name     string
	Topology string
	Opt      PipelineOptions
}

// preset materializes a spec.Preset design point as a Design; the preset
// table is the single source of truth for Table I.
func preset(name string) Design {
	s, err := spec.Preset(name)
	if err != nil {
		panic(err) // built-in preset names never miss
	}
	opt, err := s.Pipeline.Options()
	if err != nil {
		panic(err)
	}
	return Design{Name: s.Design, Topology: s.Topology, Opt: opt}
}

// TAGEL is the paper's "TAGE-L" design (Table I): a 7-table TAGE with a
// loop corrector over a BTB + bimodal base and a single-cycle micro-BTB;
// 64-bit global history.
func TAGEL() Design { return preset("tage-l") }

// B2 is the original-BOOM-like design (Table I): one partially tagged
// global table over a BTB + bimodal base; 16-bit global history.
func B2() Design { return preset("b2") }

// Tourney is the Alpha-21264-like design (Table I): a global-history
// selector choosing between global- and local-history counter tables, with
// a BTB on the global side; 32-bit global and 256 x 32-bit local histories.
func Tourney() Design { return preset("tourney") }

// Designs returns the three evaluated designs in Table I order
// (Tourney, B2, TAGE-L).
func Designs() []Design { return []Design{Tourney(), B2(), TAGEL()} }

// NewPipeline composes a predictor pipeline from a topology string using
// the default 16-byte/4-wide fetch geometry.
func NewPipeline(topology string, opt PipelineOptions) (*Pipeline, error) {
	topo, err := compose.ParseTopology(topology)
	if err != nil {
		return nil, err
	}
	return compose.New(pred.DefaultConfig(), topo, opt)
}

// Build composes a Design into a pipeline.
func (d Design) Build() (*Pipeline, error) { return NewPipeline(d.Topology, d.Opt) }

// StorageKB returns the design's total predictor storage (Table I's
// "Storage" column) in kilobytes: sub-components only, management excluded,
// matching the paper's accounting.
func (d Design) StorageKB() (float64, error) {
	p, err := d.Build()
	if err != nil {
		return 0, err
	}
	bits := 0
	for _, b := range p.ComponentBudgets() {
		bits += b.TotalBits()
	}
	return float64(bits) / 8 / 1024, nil
}

// DefaultCoreConfig returns the Table II BOOM configuration.
func DefaultCoreConfig() CoreConfig { return uarch.DefaultConfig() }

// InOrderCoreConfig returns a scalar in-order (Rocket-class) host — the
// second host-processor integration demonstrating that a composed pipeline
// drops into any frontend (§IV-C).
func InOrderCoreConfig() CoreConfig { return uarch.InOrderConfig() }

// Workloads lists the SPECint17 proxy names in Fig. 10 order.
func Workloads() []string { return workloads.Names() }

// Workload builds a fresh instance of the named workload ("perlbench"...
// "xz", "dhrystone", "coremark", or the interpreted-ISA kernels "sort",
// "fib", "dispatch").  Programs are single-use: build one per simulation.
func Workload(name string) (*Program, error) { return workloads.Get(name) }

// CompileASM assembles a workload from RISC-style assembly text (see
// internal/isa for the instruction set).  Branch outcomes in the resulting
// program come from real register/memory semantics; like all programs, the
// result is single-use.
func CompileASM(name, src string) (*Program, error) {
	p, _, err := isa.Compile(name, src)
	return p, err
}

// Spec is the canonical, versioned, JSON-serializable description of one
// full-core simulation (see internal/spec): the single run-request type the
// library, the CLI tools, the parallel runner, and the cobra-serve daemon
// all construct and consume.  Its Canonicalize, Validate, and Digest methods
// normalize a spec and derive the content address that keys result caches.
type Spec = spec.RunSpec

// SpecOutcome is everything one Spec execution produced: counters, captured
// events, and the attribution profile.
type SpecOutcome = spec.Outcome

// SpecVersion is the RunSpec schema version this build speaks.
const SpecVersion = spec.Version

// ParseSpec decodes a Spec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) { return spec.Parse(data) }

// Spec returns the design point's canonical run spec for a workload, ready
// to adjust (seed, budget, observers) and Run, serialize, or POST to a
// cobra-serve daemon.
func (d Design) Spec(workload string) *Spec {
	return &Spec{
		Design:   d.Name,
		Topology: d.Topology,
		Pipeline: spec.FromOptions(d.Opt),
		Workload: workload,
		Paranoid: d.Opt.Paranoid,
	}
}

// RunSpec executes the simulation a spec describes and returns the full
// outcome.  The spec is not mutated; callers that want the canonical form
// that actually ran (for digests or provenance) should Canonicalize first.
func RunSpec(s *Spec) (*SpecOutcome, error) { return spec.Exec(s, spec.Attach{}) }

// SpecSet is a named, canonicalizable grid over Spec fields — one base spec
// plus axes that vary it.  Sets expand deterministically (row-major cross
// product), digest like specs do, and are the shared sweep data model of
// cobra-sweep and cobra-compose.
type SpecSet = spec.Set

// SpecAxis varies one Spec field over a list of values inside a SpecSet.
type SpecAxis = spec.Axis

// ParseSpecSet decodes a SpecSet from JSON, rejecting unknown fields.
func ParseSpecSet(data []byte) (*SpecSet, error) { return spec.ParseSet(data) }

// Backend is the unified execution seam: something that runs canonical
// Specs and returns their outcomes, either in-process or on a cobra-serve
// daemon.  Every grid-shaped consumer (cobra-experiments, cobra-compose,
// library callers) takes a Backend instead of choosing locations itself,
// and the spec digest guarantees both implementations return byte-identical
// outcomes for the same spec.
type Backend = backend.Backend

// LocalBackend returns a Backend that executes specs in this process
// through the parallel runner's containment boundary (panics become errors,
// telemetry lands on m when non-nil).
func LocalBackend(m *Metrics) Backend { return &backend.Local{Metrics: m} }

// RemoteBackend returns a Backend that executes specs on the cobra-serve
// daemon at url through the retrying client (idempotent resubmission by
// digest; restarts, backpressure, and drains are ridden out).
func RemoteBackend(url string) (Backend, error) {
	return backend.NewRemote(client.Config{BaseURL: url})
}

// RunConfig configures a full-core simulation.
type RunConfig struct {
	Design   Design
	Workload string
	MaxInsts uint64
	Seed     uint64
	// Core overrides the Table II core when non-nil.
	Core *CoreConfig
	// Paranoid arms the pipeline invariant checker; any recorded violation
	// makes Run return an error (the checker itself never alters results).
	Paranoid bool
	// Timeout, when > 0, aborts the simulation cooperatively once the
	// wall-clock budget is spent, and Run returns the context error.
	// Sub-millisecond values round down to no timeout (Spec.TimeoutMS is
	// millisecond-grained).
	Timeout time.Duration
	// Observer, when non-nil, receives the cycle-level event stream
	// (predict/fire/mispredict/repair/update plus frontend redirects and
	// squashes).  Nil costs a single pointer check per emit site.
	Observer Observer
	// Profile, when non-nil, accumulates per-PC misprediction attribution
	// (the H2P report behind -top-branches).
	Profile *BranchProfile
	// Metrics, when non-nil, receives live cycle/instruction telemetry
	// (warmup included) from the run's recorder.
	Metrics *Metrics
}

// Spec extracts the serializable description of the run: everything that
// determines the simulated result.  The process-local attachments (Observer,
// Profile, Metrics) stay behind — they describe how this process watches the
// run, not what the run is — as do the Design's non-serializable Wrap and
// Observer hooks.
func (rc RunConfig) Spec() *Spec {
	s := &Spec{
		Design:    rc.Design.Name,
		Topology:  rc.Design.Topology,
		Pipeline:  spec.FromOptions(rc.Design.Opt),
		Workload:  rc.Workload,
		Seed:      rc.Seed,
		Insts:     rc.MaxInsts,
		Paranoid:  rc.Paranoid || rc.Design.Opt.Paranoid,
		TimeoutMS: rc.Timeout.Milliseconds(),
	}
	if rc.Core != nil {
		core := *rc.Core
		s.Core = &core
	}
	return s
}

// Run composes the design, attaches it to the core, runs the workload for
// MaxInsts architectural instructions, and returns the counters.  It is a
// thin veneer over the canonical spec path: RunConfig splits into a Spec
// (the serializable what-to-run) plus the process-local attachments, and
// spec.Exec does the rest.
func Run(rc RunConfig) (*Result, error) {
	observer := rc.Observer
	if observer == nil {
		observer = rc.Design.Opt.Observer
	}
	out, err := spec.Exec(rc.Spec(), spec.Attach{
		Observer: observer,
		Profile:  rc.Profile,
		Metrics:  rc.Metrics,
		Wrap:     rc.Design.Opt.Wrap,
	})
	if err != nil {
		return nil, err
	}
	return out.Stats, nil
}

// NewCore assembles a core around an already-composed pipeline and program
// (the low-level path used by the experiment harness).
func NewCore(cfg CoreConfig, bp *Pipeline, prog *Program, seed uint64) *Core {
	return uarch.NewCore(cfg, bp, prog, seed)
}

// PredictorArea reports the Fig. 8 per-sub-component area breakdown.
func PredictorArea(d Design) (Breakdown, error) {
	p, err := d.Build()
	if err != nil {
		return Breakdown{}, err
	}
	return area.Predictor(p), nil
}

// CoreArea reports the Fig. 9 whole-core area breakdown.
func CoreArea(d Design, cfg CoreConfig) (Breakdown, error) {
	p, err := d.Build()
	if err != nil {
		return Breakdown{}, err
	}
	return area.Core(p, cfg), nil
}

// PipelineDiagram renders the Fig. 4/7-style ASCII pipeline diagram.
func PipelineDiagram(d Design) (string, error) {
	p, err := d.Build()
	if err != nil {
		return "", err
	}
	return compose.Diagram(p), nil
}

// InterfaceDiagram renders the Fig. 2 interface timing diagram.
func InterfaceDiagram() string { return compose.InterfaceDiagram(3) }

// CaptureTrace writes a branch trace of the workload's first n instructions.
func CaptureTrace(w io.Writer, workload string, seed, n uint64) (uint64, error) {
	prog, err := workloads.Get(workload)
	if err != nil {
		return 0, err
	}
	return trace.Capture(w, prog, seed, n)
}

// TraceSim evaluates a design under idealized trace-driven conditions
// (the ChampSim-style harness of §II-B).
func TraceSim(d Design, r io.Reader) (TraceResult, error) {
	p, err := d.Build()
	if err != nil {
		return TraceResult{}, err
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return TraceResult{}, err
	}
	res, err := trace.Simulate(p, tr)
	if err == nil && p.ViolationCount() > 0 {
		return res, fmt.Errorf("cobra: %d invariant violations; first: %w",
			p.ViolationCount(), p.Violations()[0])
	}
	return res, err
}

// CommercialSystems returns the Skylake/Graviton proxies of Table III.
func CommercialSystems() []CommercialSystem { return commercial.Systems() }

// RunCommercial runs a workload on a commercial proxy.
func RunCommercial(sys CommercialSystem, workload string, maxInsts, seed uint64) (*Result, error) {
	return Run(RunConfig{
		Design:   Design{Name: sys.Name, Topology: sys.Topology, Opt: sys.Opt},
		Workload: workload,
		MaxInsts: maxInsts,
		Seed:     seed,
		Core:     &sys.Core,
	})
}

// HarmonicMean re-exports the Fig. 10 HARMEAN summarizer.
func HarmonicMean(xs []float64) (float64, bool) { return stats.HarmonicMean(xs) }

// Table is the plain-text table renderer used by the harness and tools.
type Table = stats.Table
