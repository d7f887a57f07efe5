package main

// layerDef is one per-layer metric and how a traced run computes it.
// At most one source is set: rep (one value per cycle of traced reps, or of
// untraced reps when untraced is set) or setup (one value from the
// in-process set-up).  Neither is set for the metrics the harness computes
// itself: the scaled times bench.cycle_ms and setup.ms,
// bench.trace_overhead_frac, which compares the two kinds of rep, and
// bench.host_slowdown, the calibrator's reading.
//
// Busy times are reported as a share of the cycle's wall time ("frac"), so a
// layer a workload never enters reads 0 without posing as a time.  Nested
// layers overlap: spec.simulate_frac is part of serve.exec_frac, and with
// two workers a layer's share can exceed 1.
type layerDef struct {
	metricDef
	untraced bool
	rep      func(s repSample) float64
	setup    func(led *ledger, setupMS float64) float64
}

// componentKinds are the Table I sub-component kinds the three presets use.
var componentKinds = []string{"TAGE", "LOOP", "BTB", "BIM", "UBTB", "GTAG", "TOURNEY", "GBIM", "LBIM"}

func frac(key string) func(repSample) float64 {
	return func(s repSample) float64 { return s.led.getMS(key) / s.wallMS }
}

func count(key string) func(repSample) float64 {
	return func(s repSample) float64 { return s.led.get(key) }
}

func ratio(num, den string) func(repSample) float64 {
	return func(s repSample) float64 {
		if d := s.led.get(den); d > 0 {
			return s.led.get(num) / d
		}
		return 0
	}
}

func perOp(f func(repSample) float64) func(repSample) float64 {
	return func(s repSample) float64 { return f(s) / float64(max(len(s.opsMS), 1)) }
}

func setupFrac(key string) func(*ledger, float64) float64 {
	return func(led *ledger, setupMS float64) float64 { return led.getMS(key) / setupMS }
}

func lower(name, unit string, rep func(repSample) float64) layerDef {
	return layerDef{metricDef: metricDef{name, unit, "lower"}, rep: rep}
}

func higher(name, unit string, rep func(repSample) float64) layerDef {
	return layerDef{metricDef: metricDef{name, unit, "higher"}, rep: rep}
}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerDef {
	ds := []layerDef{
		{metricDef: metricDef{"bench.cycle_ms", "ms", "lower"}},
		higher("bench.ops_per_cycle", "count", func(s repSample) float64 { return float64(len(s.opsMS)) }),
		{metricDef: metricDef{"bench.trace_overhead_frac", "frac", "lower"}},
		{metricDef: metricDef{"bench.host_slowdown", "ratio", "lower"}},

		{metricDef: metricDef{"setup.ms", "ms", "lower"}},
		{metricDef: metricDef{"setup.workloads_frac", "frac", "lower"}, setup: setupFrac("setup.workloads")},
		{metricDef: metricDef{"setup.trace_capture_frac", "frac", "lower"}, setup: setupFrac("setup.trace_capture")},
		{metricDef: metricDef{"setup.serve_start_frac", "frac", "lower"}, setup: setupFrac("setup.serve_start")},
		{metricDef: metricDef{"setup.fleet_load_frac", "frac", "lower"}, setup: setupFrac("setup.fleet_load")},
		{metricDef: metricDef{"setup.cold_run_frac", "frac", "lower"}, setup: setupFrac("setup.cold_run")},

		lower("spec.canonicalize_frac", "frac", frac("spec.canonicalize")),
		lower("spec.compose_frac", "frac", frac("spec.compose")),
		lower("spec.workload_frac", "frac", frac("spec.workload")),
		lower("spec.warmup_frac", "frac", frac("spec.warmup")),
		lower("spec.simulate_frac", "frac", frac("spec.simulate")),
		{metricDef: metricDef{"runner.overhead_frac", "frac", "lower"}, untraced: true, rep: frac("runner.overhead")},
		lower("uarch.self_frac", "frac", frac("uarch.self")),
		lower("uarch.kcycles", "count", count("uarch.kcycles")),
		higher("sim.kinst", "count", count("sim.kinst")),
		lower("compose.new_frac", "frac", frac("compose.new")),
		lower("compose.self_frac", "frac", frac("compose.self")),
		lower("trace.decode_frac", "frac", frac("trace.decode")),
		higher("trace.krecords", "count", count("trace.krecords")),
	}
	tick := func(s repSample) float64 {
		t := 0.0
		for _, k := range componentKinds {
			t += frac("components." + k + ".tick")(s)
		}
		return t
	}
	for _, k := range componentKinds {
		p := "components." + k + "."
		ds = append(ds,
			lower(p+"predict_frac", "frac", frac(p+"predict")),
			lower(p+"event_frac", "frac", frac(p+"event")),
			lower(p+"calls_per_kinst", "1/kinst", ratio(p+"calls", "sim.kinst")))
	}
	ds = append(ds,
		lower("components.tick_frac", "frac", tick),

		lower("client.submit_frac", "frac", frac("client.submit")),
		lower("client.miss_overhead_frac", "frac", frac("client.miss_overhead")),
		lower("client.polls_per_miss", "count", ratio("client.polls", "serve.misses")),
		lower("client.retries", "count", count("client.retries")),
		lower("serve.queue_wait_frac", "frac", frac("serve.queue_wait")),
		lower("serve.exec_frac", "frac", frac("serve.exec")),
		lower("serve.job_retries", "count", count("serve.job_retries")),
		higher("serve.cache_hit_ratio", "ratio", ratio("serve.hits", "serve.requests")),

		lower("fleet.self_frac", "frac", frac("fleet.self")),
		lower("fleet.backend_busy_frac", "frac", frac("fleet.backend")),
		lower("fleet.backend_calls", "count", count("fleet.backend_calls")),
		lower("fleet.executed", "count", count("fleet.executed")),
		higher("fleet.skipped", "count", count("fleet.skipped")),
		higher("fleet.cache_hit_ratio", "ratio", ratio("fleet.skipped", "fleet.services")),
		lower("fleet.cache_kb", "KB", count("fleet.cache_kb")),

		lower("runtime.mallocs_per_op", "count", perOp(func(s repSample) float64 { return float64(s.mallocs) })),
		lower("runtime.alloc_kb_per_op", "KB", perOp(func(s repSample) float64 { return float64(s.allocB) / 1024 })),
		lower("runtime.gc_cycles", "count", func(s repSample) float64 { return float64(s.gcs) }),
		lower("runtime.gc_pause_frac", "frac", func(s repSample) float64 { return float64(s.pauseNS) / 1e6 / s.wallMS }),
	)
	return ds
}

func layerMetricDefs() []metricDef {
	out := make([]metricDef, len(layerMetrics))
	for i, d := range layerMetrics {
		out[i] = d.metricDef
	}
	return out
}
