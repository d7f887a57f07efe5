package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// SetVersion is the current Set schema version; like RunSpec's Version it is
// part of the canonical JSON, so a bump invalidates every Set digest.
const SetVersion = 1

// maxSetPoints is the largest grid Canonicalize accepts.  Sets arrive from
// files, and a few dozen two-value axes would otherwise overflow Len or
// expand into millions of specs before the first point is checked.
const maxSetPoints = 1 << 16

// Axis varies one RunSpec field over a list of values.  Expansion is the
// ordered cross product of a Set's axes: the first axis is the slowest
// (outermost) index, the last the fastest, which is exactly the loop nest a
// hand-written sweep would use.
type Axis struct {
	// Field names the varied dimension.  Known fields: design (a preset
	// name, expanding to its topology and pipeline parameters), topology,
	// workload, host, policy, seed, insts, warmup, ghist, serialized, sfb,
	// paranoid.
	Field string `json:"field"`
	// Values are the points along the axis, applied to the base spec as
	// strings and parsed per field (seed/insts/warmup as unsigned integers,
	// serialized/sfb/paranoid as booleans).
	Values []string `json:"values"`
	// Names, when present, must parallel Values and overrides the expanded
	// point's informational Design name — how a sweep labels "the TAGE-L
	// topology with 512 rows" tage-l-512 without inventing a field for it.
	Names []string `json:"names,omitempty"`
}

// UnmarshalJSON accepts axis values as any JSON scalar — string, number, or
// boolean — normalizing each to its string form.  Hand-written grids (and the
// YAML fleet files that lower onto them) naturally write `values: [512, 1024]`;
// forcing authors to quote every number would be pure friction.  Unknown keys
// are rejected, matching ParseSet's strictness.
func (a *Axis) UnmarshalJSON(data []byte) error {
	var raw struct {
		Field  string   `json:"field"`
		Values []any    `json:"values"`
		Names  []string `json:"names"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	a.Field, a.Names, a.Values = raw.Field, raw.Names, nil
	for _, v := range raw.Values {
		switch x := v.(type) {
		case string:
			a.Values = append(a.Values, x)
		case json.Number:
			a.Values = append(a.Values, x.String())
		case bool:
			a.Values = append(a.Values, strconv.FormatBool(x))
		default:
			return fmt.Errorf("spec: axis %q value %v is not a scalar", raw.Field, v)
		}
	}
	return nil
}

// Set is a named, canonicalizable grid over RunSpec fields: one base spec
// plus axes that vary it.  It is the shared data model behind cobra-sweep's
// matrices and cobra-compose's sweep services — a Set serializes, digests,
// and expands identically everywhere, so "the sweep I ran" is as
// content-addressable as "the run I ran".
type Set struct {
	Version int     `json:"version"`
	Name    string  `json:"name,omitempty"`
	Base    RunSpec `json:"base"`
	Axes    []Axis  `json:"axes,omitempty"`
}

// setFields maps each axis field to its application on a point.  Returning
// an error rejects the value during Canonicalize, before anything runs.
var setFields = map[string]func(s *RunSpec, v string) error{
	"design": func(s *RunSpec, v string) error {
		p, err := Preset(v)
		if err != nil {
			return err
		}
		s.Design, s.Topology, s.Pipeline = p.Design, p.Topology, p.Pipeline
		return nil
	},
	"topology": func(s *RunSpec, v string) error { s.Topology = v; return nil },
	"workload": func(s *RunSpec, v string) error { s.Workload = v; return nil },
	"host":     func(s *RunSpec, v string) error { s.Host = v; return nil },
	"policy":   func(s *RunSpec, v string) error { s.Pipeline.GHRPolicy = v; return nil },
	"seed":     func(s *RunSpec, v string) error { return setUint64(&s.Seed, v) },
	"insts":    func(s *RunSpec, v string) error { return setUint64(&s.Insts, v) },
	"warmup":   func(s *RunSpec, v string) error { return setUint64(&s.Warmup, v) },
	"ghist": func(s *RunSpec, v string) error {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return fmt.Errorf("spec: bad ghist value %q: %w", v, err)
		}
		s.Pipeline.GHistBits = uint(n)
		return nil
	},
	"serialized": func(s *RunSpec, v string) error { return setBool(&s.SerializedFetch, v) },
	"sfb":        func(s *RunSpec, v string) error { return setBool(&s.SFB, v) },
	"paranoid":   func(s *RunSpec, v string) error { return setBool(&s.Paranoid, v) },
}

func setUint64(dst *uint64, v string) error {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return fmt.Errorf("spec: bad numeric axis value %q: %w", v, err)
	}
	*dst = n
	return nil
}

func setBool(dst *bool, v string) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return fmt.Errorf("spec: bad boolean axis value %q: %w", v, err)
	}
	*dst = b
	return nil
}

// SetFieldNames lists the axis fields Expand understands, sorted.
func SetFieldNames() []string {
	return []string{"design", "ghist", "host", "insts", "paranoid", "policy",
		"seed", "serialized", "sfb", "topology", "warmup", "workload"}
}

// Len returns the number of points the set expands to (the product of the
// axis lengths; 1 for an axis-free set).
func (g *Set) Len() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Coords returns the per-axis value indices of expansion point i — the
// inverse of the row-major expansion order, for callers that label cells by
// their grid position.
func (g *Set) Coords(i int) []int {
	c := make([]int, len(g.Axes))
	for a := len(g.Axes) - 1; a >= 0; a-- {
		n := len(g.Axes[a].Values)
		c[a] = i % n
		i /= n
	}
	return c
}

// Canonicalize rewrites the set in place into its canonical form — version
// explicit, axis fields lower-cased, values trimmed — and validates it: every
// axis field known and non-empty, Names (when present) parallel to Values,
// and every expanded point canonicalizable.  A canonical set is therefore a
// runnable one, and equal grids digest equally.
func (g *Set) Canonicalize() error {
	if g.Version == 0 {
		g.Version = SetVersion
	}
	if g.Version != SetVersion {
		return fmt.Errorf("spec: unsupported set version %d (this build speaks %d)", g.Version, SetVersion)
	}
	points := 1
	for i := range g.Axes {
		a := &g.Axes[i]
		a.Field = strings.ToLower(strings.TrimSpace(a.Field))
		if _, ok := setFields[a.Field]; !ok {
			return fmt.Errorf("spec: unknown axis field %q (have %s)",
				a.Field, strings.Join(SetFieldNames(), ", "))
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("spec: axis %q has no values", a.Field)
		}
		if points *= len(a.Values); points > maxSetPoints {
			return fmt.Errorf("spec: set expands to more than %d points", maxSetPoints)
		}
		if a.Names != nil && len(a.Names) != len(a.Values) {
			return fmt.Errorf("spec: axis %q has %d names for %d values",
				a.Field, len(a.Names), len(a.Values))
		}
		for j, v := range a.Values {
			a.Values[j] = strings.TrimSpace(v)
		}
		for j, n := range a.Names {
			a.Names[j] = strings.TrimSpace(n)
		}
	}
	// Validation is expansion: every point must canonicalize.
	_, err := g.expand()
	return err
}

// Canonical returns the canonicalized copy, leaving the receiver untouched.
func (g *Set) Canonical() (*Set, error) {
	c := g.Clone()
	if err := c.Canonicalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// Clone returns a deep copy.
func (g *Set) Clone() *Set {
	c := *g
	c.Base = *g.Base.Clone()
	c.Axes = make([]Axis, len(g.Axes))
	for i, a := range g.Axes {
		c.Axes[i] = Axis{
			Field:  a.Field,
			Values: append([]string(nil), a.Values...),
		}
		if a.Names != nil {
			c.Axes[i].Names = append([]string(nil), a.Names...)
		}
	}
	return &c
}

// Digest returns the content address of the grid: "sha256:<hex>" over the
// canonical form's JSON.  Two sets with equal digests expand to the same
// ordered list of RunSpec digests, so the set digest is a safe skip key for
// whole-sweep caching.
func (g *Set) Digest() (string, error) {
	c, err := g.Canonical()
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(raw)), nil
}

// Expand materializes the grid: the ordered cross product of the axes
// applied to the base spec, each point canonical.  The receiver is not
// mutated.
func (g *Set) Expand() ([]*RunSpec, error) {
	c, err := g.Canonical()
	if err != nil {
		return nil, err
	}
	return c.expand()
}

// expand materializes an already-normalized set.
func (g *Set) expand() ([]*RunSpec, error) {
	n := g.Len()
	out := make([]*RunSpec, n)
	for i := 0; i < n; i++ {
		s := g.Base.Clone()
		coords := g.Coords(i)
		for ai := range g.Axes {
			a := g.Axes[ai]
			apply, ok := setFields[a.Field]
			if !ok {
				return nil, fmt.Errorf("spec: unknown axis field %q", a.Field)
			}
			if err := apply(s, a.Values[coords[ai]]); err != nil {
				return nil, err
			}
			if a.Names != nil {
				s.Design = a.Names[coords[ai]]
			}
		}
		if err := s.Canonicalize(); err != nil {
			return nil, fmt.Errorf("spec: set point %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// ParseSet decodes a Set from JSON, rejecting unknown fields.
func ParseSet(data []byte) (*Set, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var g Set
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &g, nil
}
