package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"cobra/internal/experiments"
	"cobra/internal/spec"
)

// Version is the fleet file schema version.
const Version = 1

// Defaults are fleet-wide budget defaults, inherited by every service field
// left at zero.
type Defaults struct {
	Insts  uint64 `json:"insts,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// Experiment names one registered paper artifact (a cobra-experiments id)
// with optional budget overrides.
type Experiment struct {
	ID     string `json:"id"`
	Insts  uint64 `json:"insts,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// Service is one node of the fleet DAG.  Exactly one of Run, Sweep,
// Experiment, or Bundle is set:
//
//   - run: a single canonical spec.RunSpec
//   - sweep: a spec.Set grid, rendered as CSV
//   - experiment: a paper table/figure by registry id
//   - bundle: the named services' outputs concatenated in order (each name
//     becomes a dependency)
type Service struct {
	Name       string        `json:"-"`
	DependsOn  []string      `json:"depends_on,omitempty"`
	Run        *spec.RunSpec `json:"run,omitempty"`
	Sweep      *spec.Set     `json:"sweep,omitempty"`
	Experiment *Experiment   `json:"experiment,omitempty"`
	Bundle     []string      `json:"bundle,omitempty"`
}

// File is a parsed, validated fleet.
type File struct {
	Version  int                 `json:"version"`
	Name     string              `json:"name,omitempty"`
	Defaults Defaults            `json:"defaults,omitempty"`
	Services map[string]*Service `json:"services"`
}

// Parse decodes a fleet file.  YAML (the subset in yaml.go) and JSON both
// work — JSON is a YAML subset in spirit here too: the YAML layer only runs
// when the document isn't already valid JSON.
func Parse(data []byte) (*File, error) {
	raw := json.RawMessage(data)
	if !json.Valid(data) {
		doc, err := yamlParse(data)
		if err != nil {
			return nil, err
		}
		raw, err = json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and parses the fleet file at path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// validate normalizes the fleet in place and rejects anything the executor
// could not run: bad versions, kindless or multi-kind services, unknown
// experiment ids, dangling depends_on edges, non-canonicalizable specs.
// Cycles are detected by Stages.
func (f *File) validate() error {
	if f.Version == 0 {
		f.Version = Version
	}
	if f.Version != Version {
		return fmt.Errorf("fleet: unsupported version %d (this build speaks %d)", f.Version, Version)
	}
	if len(f.Services) == 0 {
		return fmt.Errorf("fleet: no services")
	}
	for name, svc := range f.Services {
		if svc == nil {
			return fmt.Errorf("fleet: service %q is empty", name)
		}
		svc.Name = name
		if strings.TrimSpace(name) == "" || name != strings.TrimSpace(name) {
			return fmt.Errorf("fleet: bad service name %q", name)
		}
		kinds := 0
		for _, set := range []bool{svc.Run != nil, svc.Sweep != nil, svc.Experiment != nil, svc.Bundle != nil} {
			if set {
				kinds++
			}
		}
		if kinds != 1 {
			return fmt.Errorf("fleet: service %q must have exactly one of run, sweep, experiment, bundle (has %d)", name, kinds)
		}
		switch {
		case svc.Run != nil:
			// A topology-less run naming a Table I design expands the preset,
			// exactly like a spec.Set "design" axis value.
			if svc.Run.Topology == "" && svc.Run.Design != "" {
				p, err := spec.Preset(svc.Run.Design)
				if err != nil {
					return fmt.Errorf("fleet: service %q: %w", name, err)
				}
				svc.Run.Design, svc.Run.Topology, svc.Run.Pipeline = p.Design, p.Topology, p.Pipeline
			}
			applyDefaults(svc.Run, f.Defaults)
			if err := svc.Run.Canonicalize(); err != nil {
				return fmt.Errorf("fleet: service %q: %w", name, err)
			}
		case svc.Sweep != nil:
			applyDefaults(&svc.Sweep.Base, f.Defaults)
			if err := svc.Sweep.Canonicalize(); err != nil {
				return fmt.Errorf("fleet: service %q: %w", name, err)
			}
		case svc.Experiment != nil:
			e := svc.Experiment
			if !experiments.Known(e.ID) {
				return fmt.Errorf("fleet: service %q: unknown experiment %q (have %s)",
					name, e.ID, strings.Join(experiments.Ids(), " "))
			}
			if e.Insts == 0 {
				e.Insts = f.Defaults.Insts
			}
			if e.Warmup == 0 {
				e.Warmup = f.Defaults.Warmup
			}
			if e.Seed == 0 {
				e.Seed = f.Defaults.Seed
			}
		case svc.Bundle != nil:
			if len(svc.Bundle) == 0 {
				return fmt.Errorf("fleet: service %q: empty bundle", name)
			}
			// Bundled services are dependencies by construction.
			for _, b := range svc.Bundle {
				if !contains(svc.DependsOn, b) {
					svc.DependsOn = append(svc.DependsOn, b)
				}
			}
		}
		for _, dep := range svc.DependsOn {
			if dep == name {
				return fmt.Errorf("fleet: service %q depends on itself", name)
			}
			if _, ok := f.Services[dep]; !ok {
				return fmt.Errorf("fleet: service %q depends on unknown service %q", name, dep)
			}
		}
	}
	return nil
}

// applyDefaults fills zero budget fields from the fleet defaults.  RunSpec
// canonicalization fills the remaining zeros with the spec-level defaults, so
// precedence is service > fleet > spec.
func applyDefaults(s *spec.RunSpec, d Defaults) {
	if s.Insts == 0 {
		s.Insts = d.Insts
	}
	if s.Warmup == 0 {
		s.Warmup = d.Warmup
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Names lists the services sorted by name.
func (f *File) Names() []string {
	out := make([]string, 0, len(f.Services))
	for name := range f.Services {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sinks lists the services nothing depends on, sorted — the fleet's final
// artifacts, what cobra-compose prints by default.
func (f *File) Sinks() []string {
	depended := map[string]bool{}
	for _, svc := range f.Services {
		for _, dep := range svc.DependsOn {
			depended[dep] = true
		}
	}
	var out []string
	for _, name := range f.Names() {
		if !depended[name] {
			out = append(out, name)
		}
	}
	return out
}

// Restrict trims the fleet to the named services and their transitive
// dependency cones, returning a new File sharing the service objects.
func (f *File) Restrict(names []string) (*File, error) {
	keep := map[string]bool{}
	var visit func(string) error
	visit = func(name string) error {
		if keep[name] {
			return nil
		}
		svc, ok := f.Services[name]
		if !ok {
			return fmt.Errorf("fleet: unknown service %q (have %s)", name, strings.Join(f.Names(), " "))
		}
		keep[name] = true
		for _, dep := range svc.DependsOn {
			if err := visit(dep); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range names {
		if err := visit(strings.TrimSpace(name)); err != nil {
			return nil, err
		}
	}
	sub := &File{Version: f.Version, Name: f.Name, Defaults: f.Defaults, Services: map[string]*Service{}}
	for name := range keep {
		sub.Services[name] = f.Services[name]
	}
	return sub, nil
}

// depDigest is one dependency's entry in a service's digest document.
type depDigest struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// digestDoc returns the canonical document a service digest covers: its
// kind and payload plus the digests of everything it depends on.  Including
// dep digests makes the scheme Merkle-shaped — editing one service re-keys
// exactly its downstream cone, which is what makes cache skips safe.
//
// The bytes are exactly json.Marshal's for a struct of Kind string
// `json:"kind"`, Content json.RawMessage `json:"content"` and Deps
// []depDigest `json:"deps,omitempty"` (FuzzDigestDoc holds them to it;
// testdata/golden/fleet_digests.txt pins the committed fleets' digests).
// They are assembled directly: kind is one of four plain words, and content
// comes from json.Marshal, so it is already compact and HTML-escaped, and
// Marshal would only re-validate it.
func digestDoc(kind string, content []byte, deps []depDigest) []byte {
	doc := make([]byte, 0, len(content)+len(kind)+32)
	doc = append(append(append(doc, `{"kind":"`...), kind...), `","content":`...)
	doc = append(doc, content...)
	if len(deps) > 0 {
		raw, _ := json.Marshal(deps) // strings only: Marshal cannot fail
		doc = append(append(doc, `,"deps":`...), raw...)
	}
	return append(doc, '}')
}

// Digest computes svc's content address given its dependencies' digests.
// Execution knobs (parallelism, backend, cache location) are deliberately
// excluded: they change where and how fast a service runs, never its bytes.
func (f *File) Digest(svc *Service, deps map[string]string) (string, error) {
	var kind string
	var content []byte
	var err error
	switch {
	case svc.Run != nil:
		kind = "run"
		var c *spec.RunSpec
		if c, err = svc.Run.Canonical(); err == nil {
			content, err = json.Marshal(c)
		}
	case svc.Sweep != nil:
		kind = "sweep"
		var c *spec.Set
		if c, err = svc.Sweep.Canonical(); err == nil {
			content, err = json.Marshal(c)
		}
	case svc.Experiment != nil:
		kind = "experiment"
		content, err = json.Marshal(svc.Experiment)
	case svc.Bundle != nil:
		kind = "bundle"
		content, err = json.Marshal(svc.Bundle)
	default:
		err = fmt.Errorf("fleet: service %q has no kind", svc.Name)
	}
	if err != nil {
		return "", err
	}
	names := append([]string(nil), svc.DependsOn...)
	sort.Strings(names)
	depDigests := make([]depDigest, 0, len(names))
	for _, name := range names {
		d, ok := deps[name]
		if !ok {
			return "", fmt.Errorf("fleet: service %q: missing dependency digest for %q", svc.Name, name)
		}
		depDigests = append(depDigests, depDigest{name, d})
	}
	sum := sha256.Sum256(digestDoc(kind, content, depDigests))
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}
