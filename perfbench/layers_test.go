package main

import (
	"bytes"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/obs"
	"cobra/internal/spec"
	"cobra/internal/trace"
	"cobra/internal/workloads"
)

// TestDecoratorTransparent: wrapping every sub-component in the timing
// decorator changes no simulated counter, in the full core and in the trace
// replay, for all three presets.
func TestDecoratorTransparent(t *testing.T) {
	prog, err := workloads.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, prog, 5, 20_000); err != nil {
		t.Fatal(err)
	}
	for _, name := range spec.PresetNames() {
		s, err := spec.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Workload, s.Insts, s.Warmup = "gcc", 20_000, 2_000
		if err := s.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		tr := newTracer(obs.NewSpanRecorder(obs.TraceContext{}, 0), "test")
		bare, err := spec.Exec(s, spec.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := spec.Exec(s, spec.Attach{Wrap: tr.wrap})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := digestOf(bare.Stats), digestOf(wrapped.Stats); a != b {
			t.Errorf("%s: core counters differ with the decorator: %s vs %s", name, a, b)
		}

		replay := func(wrap bool) trace.SimResult {
			opt, err := s.Pipeline.Options()
			if err != nil {
				t.Fatal(err)
			}
			if wrap {
				opt.Wrap = tr.wrap
			}
			hw, err := s.ResolveCore()
			if err != nil {
				t.Fatal(err)
			}
			topo, err := compose.ParseTopologyCached(s.Topology)
			if err != nil {
				t.Fatal(err)
			}
			p, err := compose.New(hw.Fetch, topo, opt)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			res, err := trace.Simulate(p, rd)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := replay(false), replay(true); a != b {
			t.Errorf("%s: trace replay differs with the decorator: %+v vs %+v", name, a, b)
		}

		led := newLedger()
		if ms := tr.settle(led); ms <= 0 {
			t.Errorf("%s: decorator estimated %v ms of component time", name, ms)
		}
		calls := 0.0
		for _, k := range componentKinds {
			calls += led.get("components." + k + ".calls")
		}
		if calls == 0 {
			t.Errorf("%s: decorator counted no calls", name)
		}
	}
}
