// Package spec defines the canonical run-request API: one versioned,
// JSON-serializable description of a full-core simulation — design topology,
// management options, workload reference + content hash, seed, instruction
// budget, host core, fault plan, and observer configuration.
//
// A RunSpec is the unit every entry point shares: the cobra library surface,
// the CLI tools (internal/cli parses flags straight into one), the parallel
// runner (runner.RunSpecs), the experiment grids, and the cobra-serve daemon,
// which queues, deduplicates, and caches runs by the spec's content digest.
//
// Canonical form and digest.  Canonical(), or the in-place Canonicalize(),
// produces the normal form: defaults made explicit, the topology re-rendered
// from its parse tree, fault kinds/components sorted and deduplicated, and
// the workload's content hash filled in.  Digest() is the SHA-256 of the
// canonical form's JSON — two specs with equal digests describe
// bit-identical simulations, which is what makes the digest a safe
// content-address for result caches.  The JSON schema is frozen per Version;
// changing the shape of the struct without bumping Version breaks the
// committed golden fixture in spec_test.go, on purpose.
package spec

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"cobra/internal/compose"
	"cobra/internal/faults"
	"cobra/internal/uarch"
	"cobra/internal/workloads"
)

// Version is the current RunSpec schema version.  Bump it whenever the JSON
// shape or the meaning of any field changes; digests embed the version, so a
// bump invalidates every previously cached result.
const Version = 1

// Defaults applied by Canonicalize, shared with the library surface.
const (
	DefaultSeed  = 42
	DefaultInsts = 1_000_000
)

// Pipeline is the serializable subset of compose.Options: the generated
// management-structure parameters.  Zero values mean "default"; Canonicalize
// makes the defaults explicit so equal configurations digest equally.
type Pipeline struct {
	GHistBits     uint   `json:"ghist_bits,omitempty"`
	LocalEntries  int    `json:"local_entries,omitempty"`
	LocalHistBits uint   `json:"local_hist_bits,omitempty"`
	PathBits      uint   `json:"path_bits,omitempty"`
	HFEntries     int    `json:"hf_entries,omitempty"`
	GHRPolicy     string `json:"ghr_policy,omitempty"` // repair | replay | none
}

// FaultPlan is the serializable description of a deterministic
// fault-injection campaign (internal/faults).
type FaultPlan struct {
	Seed       uint64   `json:"seed,omitempty"`
	Period     uint64   `json:"period"`
	Kinds      []string `json:"kinds,omitempty"`
	Components []string `json:"components,omitempty"`
}

// Observe configures the observability artifacts a run produces.  It is part
// of the digest: a run asked to capture events is a different deliverable
// from the same run without them.
type Observe struct {
	// Events captures the cycle-level event trace (ring-buffered).
	Events bool `json:"events,omitempty"`
	// EventsBuf overrides the ring capacity (0 = tracer default).
	EventsBuf int `json:"events_buf,omitempty"`
	// Attribution accumulates the per-PC H2P misprediction profile.
	Attribution bool `json:"attribution,omitempty"`
	// IntervalInsts enables windowed interval telemetry, closing one window
	// every this many committed instructions (internal/interval).
	IntervalInsts uint64 `json:"interval_insts,omitempty"`
}

// RunSpec is the canonical description of one full-core simulation.
type RunSpec struct {
	Version int `json:"version"`

	// Design is the informational design-point name ("tage-l", "custom");
	// it never affects execution and is excluded from nothing — it is part
	// of the canonical JSON, so name your spec consistently.
	Design   string   `json:"design,omitempty"`
	Topology string   `json:"topology"`
	Pipeline Pipeline `json:"pipeline"`

	// Workload names the program.  Its layout follows the host core's fetch
	// geometry: Exec builds it for Core.Fetch.InstBytes-byte instructions, so
	// a SPECint proxy on an 8x2-byte frontend runs the same profile at 2-byte
	// addresses.  Every other workload exists only at 4 bytes, and
	// Canonicalize rejects it at any other width.
	Workload string `json:"workload"`
	// WorkloadHash pins the workload definition (program.Fingerprint) at
	// that layout.  Canonicalize fills it when empty and rejects a stale
	// mismatch, so a spec minted against one generator version cannot
	// silently reuse results from another.
	WorkloadHash string `json:"workload_hash,omitempty"`

	Seed   uint64 `json:"seed"`
	Insts  uint64 `json:"insts"`
	Warmup uint64 `json:"warmup,omitempty"`

	// Host names a core preset: "boom" (Table II, default) or "inorder"
	// (scalar Rocket-class).  Core, when non-nil, is a full configuration
	// override and wins over Host.
	Host            string        `json:"host,omitempty"`
	Core            *uarch.Config `json:"core,omitempty"`
	SerializedFetch bool          `json:"serialized_fetch,omitempty"`
	SFB             bool          `json:"sfb,omitempty"`

	Paranoid  bool  `json:"paranoid,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	Faults  *FaultPlan `json:"faults,omitempty"`
	Observe Observe    `json:"observe"`
}

// Timeout returns the per-run wall-clock budget (0 = none).
func (s *RunSpec) Timeout() time.Duration { return time.Duration(s.TimeoutMS) * time.Millisecond }

// SetTimeout sets the per-run wall-clock budget (d <= 0 = none), rounding a
// sub-millisecond budget up to 1ms so it still times out.
func (s *RunSpec) SetTimeout(d time.Duration) {
	s.TimeoutMS = 0
	if d > 0 {
		s.TimeoutMS = max(d.Milliseconds(), 1)
	}
}

// Options converts the serializable pipeline parameters into compose
// options.  The non-serializable hooks (Wrap, Observer) stay zero; callers
// attach them per run.
func (p Pipeline) Options() (compose.Options, error) {
	pol, err := parseGHRPolicy(p.GHRPolicy)
	if err != nil {
		return compose.Options{}, err
	}
	return compose.Options{
		GHistBits:     p.GHistBits,
		LocalEntries:  p.LocalEntries,
		LocalHistBits: p.LocalHistBits,
		PathBits:      p.PathBits,
		HFEntries:     p.HFEntries,
		GHRPolicy:     pol,
	}, nil
}

// FromOptions extracts the serializable subset of compose options.
func FromOptions(o compose.Options) Pipeline {
	return Pipeline{
		GHistBits:     o.GHistBits,
		LocalEntries:  o.LocalEntries,
		LocalHistBits: o.LocalHistBits,
		PathBits:      o.PathBits,
		HFEntries:     o.HFEntries,
		GHRPolicy:     renderGHRPolicy(o.GHRPolicy),
	}
}

func parseGHRPolicy(s string) (compose.GHRPolicy, error) {
	switch s {
	case "", "repair":
		return compose.GHRRepair, nil
	case "replay":
		return compose.GHRRepairReplay, nil
	case "none":
		return compose.GHRNoRepair, nil
	}
	return 0, fmt.Errorf("spec: unknown ghr_policy %q (repair, replay, none)", s)
}

func renderGHRPolicy(p compose.GHRPolicy) string {
	switch p {
	case compose.GHRRepairReplay:
		return "replay"
	case compose.GHRNoRepair:
		return "none"
	}
	return "repair"
}

// Plan converts the serializable fault plan into an injector plan.  The
// returned plan is fresh per call: faults.Plan accumulates per-pipeline
// injector state and must not be shared across unrelated runs.
func (f *FaultPlan) Plan() (*faults.Plan, error) {
	if f == nil {
		return nil, nil
	}
	kinds, err := faults.ParseKinds(strings.Join(f.Kinds, ","))
	if err != nil {
		return nil, err
	}
	return &faults.Plan{
		Seed:       f.Seed,
		Period:     f.Period,
		Kinds:      kinds,
		Components: append([]string(nil), f.Components...),
	}, nil
}

// ResolveCore returns the host configuration the spec describes, with the
// fetch-serialization and SFB toggles applied.
func (s *RunSpec) ResolveCore() (uarch.Config, error) {
	var cfg uarch.Config
	switch {
	case s.Core != nil:
		cfg = *s.Core
	case s.Host == "" || s.Host == "boom":
		cfg = uarch.DefaultConfig()
	case s.Host == "inorder":
		cfg = uarch.InOrderConfig()
	default:
		return uarch.Config{}, fmt.Errorf("spec: unknown host %q (boom, inorder)", s.Host)
	}
	cfg.SerializedFetch = cfg.SerializedFetch || s.SerializedFetch
	cfg.SFB = cfg.SFB || s.SFB
	return cfg, nil
}

// Canonicalize rewrites the spec in place into its canonical form: version
// and defaults explicit, topology re-rendered from its parse tree, fault
// kinds normalized/sorted (an inert plan drops to nil), components sorted
// and deduplicated, and the workload hash filled in.  It returns an error
// for anything Exec would reject, so a canonical spec is also a valid one.
func (s *RunSpec) Canonicalize() error {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build speaks %d)", s.Version, Version)
	}
	topo, err := compose.ParseTopology(s.Topology)
	if err != nil {
		return err
	}
	s.Topology = topo.String()

	if s.Pipeline.GHistBits == 0 {
		s.Pipeline.GHistBits = 64
	}
	if s.Pipeline.LocalEntries == 0 {
		s.Pipeline.LocalEntries = 256
	}
	if s.Pipeline.LocalHistBits == 0 {
		s.Pipeline.LocalHistBits = 32
	}
	if s.Pipeline.PathBits == 0 {
		s.Pipeline.PathBits = 16
	}
	if s.Pipeline.HFEntries == 0 {
		s.Pipeline.HFEntries = 32
	}
	pol, err := parseGHRPolicy(s.Pipeline.GHRPolicy)
	if err != nil {
		return err
	}
	s.Pipeline.GHRPolicy = renderGHRPolicy(pol)

	if s.Core != nil {
		s.Host = "" // the override is the whole story
	} else if s.Host == "" {
		s.Host = "boom"
	}
	core, err := s.ResolveCore()
	if err != nil {
		return err
	}
	if err := core.Validate(); err != nil {
		return fmt.Errorf("spec: core: %w", err)
	}
	hash, err := workloads.Fingerprint(s.Workload, core.Fetch.InstBytes)
	if err != nil {
		return err
	}
	if s.WorkloadHash != "" && s.WorkloadHash != hash {
		return fmt.Errorf("spec: workload %q hash mismatch: spec pins %s but this build generates %s",
			s.Workload, s.WorkloadHash, hash)
	}
	s.WorkloadHash = hash

	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Insts == 0 {
		s.Insts = DefaultInsts
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("spec: negative timeout_ms %d", s.TimeoutMS)
	}

	if s.Faults != nil {
		kinds, err := faults.ParseKinds(strings.Join(s.Faults.Kinds, ","))
		if err != nil {
			return err
		}
		if s.Faults.Period == 0 || kinds == 0 {
			s.Faults = nil // inert plan: injector disabled
		} else {
			names := strings.Split(kinds.String(), "|")
			sort.Strings(names)
			s.Faults.Kinds = names
			s.Faults.Components = normalizeComponents(s.Faults.Components)
		}
	}

	if !s.Observe.Events {
		s.Observe.EventsBuf = 0
	}
	return nil
}

func normalizeComponents(cs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cs {
		c = strings.ToUpper(strings.TrimSpace(c))
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Canonical returns the canonicalized copy, leaving the receiver untouched.
func (s *RunSpec) Canonical() (*RunSpec, error) {
	c := s.Clone()
	if err := c.Canonicalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// Clone returns a deep copy.
func (s *RunSpec) Clone() *RunSpec {
	c := *s
	if s.Core != nil {
		core := *s.Core
		c.Core = &core
	}
	if s.Faults != nil {
		f := *s.Faults
		f.Kinds = append([]string(nil), s.Faults.Kinds...)
		f.Components = append([]string(nil), s.Faults.Components...)
		c.Faults = &f
	}
	return &c
}

// Validate reports whether the spec describes a runnable simulation, without
// mutating it.
func (s *RunSpec) Validate() error {
	_, err := s.Canonical()
	return err
}

// Digest returns the content address of the run the spec describes:
// "sha256:<hex>" over the canonical form's JSON.  Specs that digest equally
// produce bit-identical results, so the digest keys result caches and
// deduplicates identical in-flight requests.
func (s *RunSpec) Digest() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(raw)), nil
}

// Parse decodes a RunSpec from JSON, rejecting unknown fields so a typo'd
// request fails loudly instead of silently running the default.
func Parse(data []byte) (*RunSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}
