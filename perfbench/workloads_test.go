package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"cobra/internal/obs"
)

// quickLimit is how long one workload may take at test size.
var quickLimit = 10 * time.Second

func quickConfig(t *testing.T) config {
	return config{seed: goldenSeed, quick: true, root: "..", workdir: t.TempDir()}
}

// TestWorkloadsQuick runs every workload at test size, untraced and traced,
// with the minimum number of reps: each completes in under quickLimit, every
// output checks out, and every metric is reported.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			rs, err := measure(w, quickConfig(t), 0, traced, nil, obs.NewSpanRecorder(obs.TraceContext{}, 1<<16), nil)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if d := time.Since(t0); d > quickLimit {
				t.Errorf("%s traced=%t took %v at test size", w.name, traced, d)
			}
			if rs.failed != 0 || len(rs.checks) != 0 || rs.attempted == 0 {
				t.Errorf("%s traced=%t: failed=%d attempted=%d checks=%v", w.name, traced, rs.failed, rs.attempted, rs.checks)
			}
			vals, defs := rs.e2e(), e2eMetrics
			if traced {
				vals, defs = rs.perLayer(), layerMetricDefs()
			}
			for _, d := range defs {
				if _, ok := vals[d.Name]; !ok {
					t.Errorf("%s traced=%t: metric %s not reported", w.name, traced, d.Name)
				}
			}
		}
	}
}

// TestSimLongReconciles: on sim-long the spec.Exec total plus the runner's
// own time make up the rep's wall time, and the runner's share is small and
// not negative.
func TestSimLongReconciles(t *testing.T) {
	inst, err := simLong.setup(quickConfig(t), newLedger())
	if err != nil {
		t.Fatal(err)
	}
	for kind := 0; kind < inst.kinds(); kind++ {
		led := newLedger()
		r, err := inst.rep(kind, led, nil)
		if err != nil {
			t.Fatal(err)
		}
		if over := led.getMS("runner.overhead"); over < 0 || over > 0.05*r.wallMS {
			t.Errorf("kind %d: runner overhead %.3f ms of a %.3f ms rep", kind, over, r.wallMS)
		}
	}
}

// TestTraceReplayReconciles checks the component-time estimate on
// trace-replay, for every preset, against two measurements taken apart from
// it:
//   - timing every call in the same replay: the estimate from one call in
//     samplePeriod is within 5% of it;
//   - the untraced replay: trace.Simulate takes at least the decode time plus
//     the estimated component time of a traced one (medians of 3 reps).
func TestTraceReplayReconciles(t *testing.T) {
	inst, err := traceReplay.setup(quickConfig(t), newLedger())
	if err != nil {
		t.Fatal(err)
	}
	cost := clockCost()
	components := func(led *ledger) float64 {
		ms := 0.0
		for _, k := range componentKinds {
			for _, g := range groupNames {
				ms += led.getMS("components." + k + "." + g)
			}
		}
		return ms
	}
	for kind := 0; kind < inst.kinds(); kind++ {
		tr := newTracer(obs.NewSpanRecorder(obs.TraceContext{}, 0), "test")
		tr.timeAll = true
		if _, err := inst.rep(kind, newLedger(), tr); err != nil {
			t.Fatal(err)
		}
		var est, all [nGroups]float64
		for _, c := range tr.comps {
			for sig := range c.calls {
				est[groupOf[sig]] += c.estimateMS(sig, cost)
				all[groupOf[sig]] += perCallMS(c.allNS[sig], c.allN[sig], c.calls[sig], cost)
			}
		}
		for g := range groupNames {
			t.Logf("kind %d %s: estimated %.3f ms, every call %.3f ms", kind, groupNames[g], est[g], all[g])
		}
		if e, a := sum(est[:]), sum(all[:]); a <= 0 || e < 0.95*a || e > 1.05*a {
			t.Errorf("kind %d: estimated component time %.3f ms, every call timed %.3f ms", kind, e, a)
		}

		var untraced, parts []float64
		for i := 0; i < 3; i++ {
			led := newLedger()
			if _, err := inst.rep(kind, led, nil); err != nil {
				t.Fatal(err)
			}
			untraced = append(untraced, led.getMS("trace.simulate"))
			led = newLedger()
			if _, err := inst.rep(kind, led, newTracer(obs.NewSpanRecorder(obs.TraceContext{}, 0), "test")); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, led.getMS("trace.decode")+components(led))
			if self := led.getMS("compose.self"); self < 0 {
				t.Errorf("kind %d: negative compose self time %.3f ms", kind, self)
			}
		}
		if u, p := median(untraced), median(parts); p > u {
			t.Errorf("kind %d: decode plus estimated component time %.3f ms exceeds untraced trace.Simulate %.3f ms", kind, p, u)
		}
	}
}

// TestPinMismatchFails: a counter digest that differs from its pin is
// counted as a failure and makes the run incorrect.
func TestPinMismatchFails(t *testing.T) {
	rs, err := measure(traceReplay, quickConfig(t), 0, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.failed != 0 {
		t.Fatalf("unpinned run failed %d", rs.failed)
	}
	good := map[string]string{traceReplay.name: rs.counters}
	if rs, err = measure(traceReplay, quickConfig(t), 0, false, good, nil, nil); err != nil || rs.failed != 0 {
		t.Fatalf("correct pin: failed=%d err=%v", rs.failed, err)
	}
	bad := map[string]string{traceReplay.name: "sha256:0"}
	if rs, err = measure(traceReplay, quickConfig(t), 0, false, bad, nil, nil); err != nil {
		t.Fatal(err)
	}
	res := rs.report(io.Discard, e2eMetrics, rs.e2e())
	if rs.failed == 0 || res.Correct {
		t.Errorf("perturbed pin: failed=%d correct=%t", rs.failed, res.Correct)
	}
}

// TestBenchmarkFile: BENCHMARK.json describes exactly what this program
// measures, within the limits its format sets.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads listed, %d measured", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		checkName(w.name)
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, measured %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics listed, %d measured", len(bf.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.metricDef != e2eMetrics[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: listed %+v, measured %+v", i, m, e2eMetrics[i])
		}
	}
	defs := layerMetricDefs()
	if len(bf.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("%d per-layer metrics listed, %d measured", len(bf.PerLayer), len(defs))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if m != defs[i] {
			t.Errorf("per-layer %d: listed %+v, measured %+v", i, m, defs[i])
		}
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		if pins[w.name] == "" {
			t.Errorf("pins.json has no digest for %s", w.name)
		}
	}
	if _, err := os.Stat("../" + fleetGolden); err != nil {
		t.Error(err)
	}
}
