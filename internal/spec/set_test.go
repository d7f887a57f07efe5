package spec

import (
	"encoding/json"
	"strings"
	"testing"
)

func testSet() *Set {
	return &Set{
		Name: "t",
		Base: RunSpec{Workload: "gcc", Insts: 1000},
		Axes: []Axis{
			{Field: "design", Values: []string{"tourney", "b2"}},
			{Field: "workload", Values: []string{"gcc", "leela", "mcf"}},
		},
	}
}

// Expansion is the row-major cross product: first axis outermost, last axis
// fastest — the loop nest a hand-written sweep uses.
func TestSetExpandOrder(t *testing.T) {
	specs, err := testSet().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("expanded %d points, want 6", len(specs))
	}
	want := []struct{ design, workload string }{
		{"tourney", "gcc"}, {"tourney", "leela"}, {"tourney", "mcf"},
		{"b2", "gcc"}, {"b2", "leela"}, {"b2", "mcf"},
	}
	for i, w := range want {
		if specs[i].Design != w.design || specs[i].Workload != w.workload {
			t.Errorf("point %d = (%s, %s), want (%s, %s)",
				i, specs[i].Design, specs[i].Workload, w.design, w.workload)
		}
		if specs[i].Insts != 1000 {
			t.Errorf("point %d lost the base instruction budget: %d", i, specs[i].Insts)
		}
	}
}

// Coords inverts the expansion order.
func TestSetCoords(t *testing.T) {
	g := testSet()
	if got := g.Coords(0); got[0] != 0 || got[1] != 0 {
		t.Errorf("Coords(0) = %v", got)
	}
	if got := g.Coords(5); got[0] != 1 || got[1] != 2 {
		t.Errorf("Coords(5) = %v", got)
	}
	if g.Len() != 6 {
		t.Errorf("Len = %d", g.Len())
	}
}

// Every expanded point is canonical: defaults explicit, workload hash
// pinned, digestable.
func TestSetExpandCanonical(t *testing.T) {
	specs, err := testSet().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if s.WorkloadHash == "" || s.Version != Version || s.Seed == 0 {
			t.Errorf("point %d not canonical: %+v", i, s)
		}
		if _, err := s.Digest(); err != nil {
			t.Errorf("point %d digest: %v", i, err)
		}
	}
}

// The set digest is stable across equivalent spellings (whitespace, implicit
// version) and sensitive to any value change.
func TestSetDigest(t *testing.T) {
	a, err := testSet().Digest()
	if err != nil {
		t.Fatal(err)
	}
	sloppy := testSet()
	sloppy.Axes[0].Field = " Design "
	sloppy.Axes[1].Values = []string{"gcc ", " leela", "mcf"}
	b, err := sloppy.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equivalent sets digest differently:\n%s\n%s", a, b)
	}
	changed := testSet()
	changed.Base.Insts = 2000
	c, err := changed.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("changing the base budget did not change the set digest")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Errorf("digest %q has no sha256: prefix", a)
	}
}

// Names override the informational design label per value.
func TestSetAxisNames(t *testing.T) {
	g := &Set{
		Base: RunSpec{Workload: "gcc", Insts: 1000},
		Axes: []Axis{{
			Field:  "topology",
			Values: []string{"TAGE3(512) > BTB2 > BIM2", "TAGE3(1024) > BTB2 > BIM2"},
			Names:  []string{"tage-512", "tage-1024"},
		}},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Design != "tage-512" || specs[1].Design != "tage-1024" {
		t.Errorf("names not applied: %q, %q", specs[0].Design, specs[1].Design)
	}
}

func TestSetRejects(t *testing.T) {
	huge := make([]Axis, 63)
	for i := range huge {
		huge[i] = Axis{Field: "seed", Values: []string{"1", "2"}}
	}
	cases := map[string]*Set{
		"unknown field": {Base: RunSpec{Workload: "gcc"},
			Axes: []Axis{{Field: "flux", Values: []string{"1"}}}},
		"empty axis": {Base: RunSpec{Workload: "gcc"},
			Axes: []Axis{{Field: "seed"}}},
		"names mismatch": {Base: RunSpec{Workload: "gcc"},
			Axes: []Axis{{Field: "seed", Values: []string{"1", "2"}, Names: []string{"a"}}}},
		"bad numeric": {Base: RunSpec{Workload: "gcc"},
			Axes: []Axis{{Field: "insts", Values: []string{"many"}}}},
		"bad point": {Base: RunSpec{Workload: "gcc"},
			Axes: []Axis{{Field: "topology", Values: []string{"NOT A TOPOLOGY ("}}}},
		"bad version": {Version: 99, Base: RunSpec{Workload: "gcc"}},
		// 2^63 points: Len overflows, so only the size bound stops it.
		"too many points": {Base: RunSpec{Workload: "gcc"}, Axes: huge},
	}
	for name, g := range cases {
		if err := g.Canonicalize(); err == nil {
			t.Errorf("%s: Canonicalize accepted %+v", name, g)
		}
	}
}

// Expand and Canonicalize leave the receiver untouched (Expand) or converge
// (Canonicalize twice = once).
func TestSetCanonicalizeIdempotent(t *testing.T) {
	g := testSet()
	if err := g.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	d1, err := g.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	d2, err := g.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("canonicalize not idempotent: %s != %s", d1, d2)
	}
}

// A round-trip through JSON preserves the digest, and unknown fields are
// rejected like RunSpec's Parse.
func TestParseSet(t *testing.T) {
	g, err := testSet().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := g.Digest()
	d2, _ := back.Digest()
	if d1 != d2 {
		t.Errorf("round-trip changed digest: %s != %s", d1, d2)
	}
	if _, err := ParseSet([]byte(`{"base":{},"banana":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}
