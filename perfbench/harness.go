package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cobra/internal/obs"
)

// config is what one benchmark process was asked to run.
type config struct {
	seed    uint64
	quick   bool   // test-sized inputs; never pinned
	root    string // checkout root: fleets/ and the golden files live here
	workdir string // scratch directory inside the checkout
}

// A workload is one set of inputs the benchmark runs.  setup builds the
// inputs from the seed and warms everything its reps use lazily (program
// builds, memoized geometry, a primed cache); setup_s times it in fresh
// processes.  threads is how many goroutines a rep keeps busy, which is how
// many the calibrator samples the host with.
type workload struct {
	name    string
	why     string
	threads int
	setup   func(cfg config, led *ledger) (instance, error)
}

// instance is a set-up workload.  Its reps come in kinds() kinds, run in
// turn: rep i runs kind i mod kinds(), and a run always measures whole
// cycles of kinds.  Short reps let the calibrator follow the host's speed
// closely.  rep books its per-layer accounting into led; tr is non-nil only
// in traced reps, which add the component decorator, spans, and
// traced-only probes.
type instance interface {
	kinds() int
	rep(kind int, led *ledger, tr *tracer) (repResult, error)
	close()
}

// repResult is what one repetition produced.
type repResult struct {
	wallMS   float64   // the measured region (traced-only probes excluded)
	opsMS    []float64 // latency of every operation
	failed   int       // operations that failed or returned wrong bytes
	counters string    // digest of the simulated outputs: identical every cycle
}

var allWorkloads = []workload{simLong, traceReplay, serveMixed, fleetCold, fleetCached}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

const (
	// setup_s is the median set-up time of at least minProbes fresh
	// processes, and of up to maxProbes while they take under probeBudget.
	minProbes, maxProbes = 3, 21
	probeBudget          = 3 * time.Second
	// minCycles is the fewest measured cycles of rep kinds in a run.
	minCycles = 2
)

// result is one benchmark run: the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStats is everything a run measured, before it is reduced to metrics.
type runStats struct {
	name      string
	kinds     int
	setupS    []float64 // scaled
	setupRawS []float64
	setupLed  *ledger
	setupMS   float64
	plain     []repSample // untraced measured reps, in order
	traced    []repSample
	attempted int
	failed    int
	checks    []string // failed correctness checks
	counters  string
	peakRSSMB float64
	slowdown  float64 // median host slowdown over the run (1 = nominal)
	samples   int     // calibration samples taken
}

// repSample is one measured rep, or several merged into one cycle.
type repSample struct {
	repResult
	led        *ledger
	start, end float64 // on the calibrator's clock
	slow       float64 // host slowdown over the rep
	mallocs    uint64
	allocB     uint64
	gcs        uint32
	pauseNS    uint64
}

// measure runs one workload: set-up probes, in-process set-up, one
// unmeasured warm-up cycle, then measured cycles until the time is up (at
// least minCycles).  A traced run follows every untraced rep with a traced
// rep of the same kind, so the tracing overhead is measured in the same
// process.
func measure(w workload, cfg config, seconds float64, traced bool, pins map[string]string, spans *obs.SpanRecorder, probe func() (float64, error)) (*runStats, error) {
	rs := &runStats{name: w.name}
	cal := newCalibrator(w.threads)
	// A set-up is short next to the scatter of single calibration samples,
	// so every set-up of the run is scaled by the median slowdown over all
	// samples taken between them.
	var slow []float64
	probeStart := time.Now()
	for i := 0; probe != nil && i < maxProbes && (i < minProbes || time.Since(probeStart) < probeBudget); i++ {
		slow = append(slow, cal.take())
		s, err := probe()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		rs.setupRawS = append(rs.setupRawS, s)
	}
	if probe != nil {
		slow = append(slow, cal.take())
	}
	for _, s := range rs.setupRawS {
		rs.setupS = append(rs.setupS, s/median(slow))
	}
	rs.setupLed = newLedger()
	t0 := time.Now()
	inst, err := w.setup(cfg, rs.setupLed)
	rs.setupMS = msSince(t0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	rs.kinds = inst.kinds()

	check := func(ok bool, format string, args ...any) {
		if !ok {
			rs.failed++
			rs.checks = append(rs.checks, fmt.Sprintf(format, args...))
		}
	}
	want := make([]string, rs.kinds) // counters of each kind, from the warm-up
	doRep := func(kind int, tr *tracer) (repSample, error) {
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		s := repSample{led: newLedger(), start: cal.now()}
		r, err := inst.rep(kind, s.led, tr)
		s.end = cal.now()
		if err != nil {
			return s, err
		}
		s.repResult = r
		if traced {
			runtime.ReadMemStats(&m1)
			s.mallocs, s.allocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			s.gcs, s.pauseNS = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
		}
		rs.attempted += len(r.opsMS)
		rs.failed += r.failed
		if want[kind] == "" {
			want[kind] = r.counters
		}
		check(r.counters == want[kind], "%s: simulated counters of rep kind %d changed: %s then %s",
			w.name, kind, want[kind], r.counters)
		return s, nil
	}

	for k := 0; k < rs.kinds; k++ { // warm-up cycle
		if _, err := doRep(k, nil); err != nil {
			return nil, fmt.Errorf("warm-up rep: %w", err)
		}
	}
	rs.counters = digestOf(want)
	if pin, ok := pins[w.name]; ok {
		check(rs.counters == pin, "%s: counters %s, pinned %s", w.name, rs.counters, pin)
	}
	resetPeakRSS()

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minCycles*rs.kinds || i%rs.kinds != 0 || time.Now().Before(deadline); i++ {
		cal.due()
		s, err := doRep(i%rs.kinds, nil)
		if err != nil {
			return nil, err
		}
		rs.plain = append(rs.plain, s)
		if !traced {
			continue
		}
		tr := newTracer(spans, w.name+" rep")
		s, err = doRep(i%rs.kinds, tr)
		tr.root.End()
		if err != nil {
			return nil, err
		}
		rs.traced = append(rs.traced, s)
	}
	cal.take()
	for _, reps := range [][]repSample{rs.plain, rs.traced} {
		for i := range reps {
			reps[i].slow = cal.around(reps[i].start, reps[i].end)
		}
	}
	rs.slowdown, rs.samples = cal.slowdown(), len(cal.samples)
	rs.peakRSSMB = peakRSSMB()
	return rs, nil
}

// cycles merges consecutive reps into whole cycles of kinds: wall times,
// operations and counts add up, and the ledgers merge.
func cycles(reps []repSample, kinds int) []repSample {
	var out []repSample
	for i := 0; i+kinds <= len(reps); i += kinds {
		c := repSample{led: newLedger()}
		for _, s := range reps[i : i+kinds] {
			c.wallMS += s.wallMS
			c.opsMS = append(c.opsMS, s.opsMS...)
			c.failed += s.failed
			c.mallocs += s.mallocs
			c.allocB += s.allocB
			c.gcs += s.gcs
			c.pauseNS += s.pauseNS
			c.led.merge(s.led)
		}
		out = append(out, c)
	}
	return out
}

// scaled returns a copy of reps with every time divided by its rep's host
// slowdown.  README.md, "Host-speed scaling", gives the evidence that this
// holds, and where it does not.
func scaled(reps []repSample) []repSample {
	out := make([]repSample, len(reps))
	for i, s := range reps {
		s.wallMS /= s.slow
		s.opsMS = make([]float64, len(reps[i].opsMS))
		for j, ms := range reps[i].opsMS {
			s.opsMS[j] = ms / s.slow
		}
		out[i] = s
	}
	return out
}

// e2e reduces an untraced run to the end-to-end metrics, scaled to the
// nominal host speed (see calibrator and scaled).
func (rs *runStats) e2e() map[string]summary { return rs.e2eOf(scaled(rs.plain), rs.setupS) }

// e2eRaw is e2e without the scaling: the times as measured.
func (rs *runStats) e2eRaw() map[string]summary { return rs.e2eOf(rs.plain, rs.setupRawS) }

// e2eOf reduces measured reps and set-up times to the end-to-end metrics.
// Throughput is all operations over all rep time; latency percentiles pool
// every measured operation.  Quartiles are those of the same quantity cycle
// by cycle.
func (rs *runStats) e2eOf(reps []repSample, setupS []float64) map[string]summary {
	cyc := cycles(reps, rs.kinds)
	rate := func(c []repSample) float64 {
		ops, ms := 0, 0.0
		for _, s := range c {
			ops += len(s.opsMS)
			ms += s.wallMS
		}
		return float64(ops) / (ms / 1e3)
	}
	var ops, rates []float64
	for _, s := range reps {
		ops = append(ops, s.opsMS...)
	}
	for _, c := range cyc {
		rates = append(rates, rate([]repSample{c}))
	}
	pct := func(p float64) summary {
		var per []float64
		for _, c := range cyc {
			per = append(per, quantile(c.opsMS, p))
		}
		q1, _, q3 := quartiles(per)
		return summary{Median: quantile(ops, p), Q1: q1, Q3: q3, N: len(ops)}
	}
	r := summarize(rates)
	r.Median = rate(reps)
	rss := rs.peakRSSMB
	return map[string]summary{
		"setup_s":     summarize(setupS),
		"ops_per_s":   r,
		"op_p50_ms":   pct(0.5),
		"op_p90_ms":   pct(0.9),
		"peak_rss_mb": {Median: rss, Q1: rss, Q3: rss, N: 1},
	}
}

// perLayer reduces a traced run to the per-layer metrics, one value per
// cycle of traced reps (per cycle of untraced reps for those measured
// there).  Shares and rates are unaffected by the host's speed; the few
// absolute times are scaled like the end-to-end ones.
func (rs *runStats) perLayer() map[string]summary {
	plain, traced := cycles(rs.plain, rs.kinds), cycles(rs.traced, rs.kinds)
	out := map[string]summary{}
	for _, d := range layerMetrics {
		var xs []float64
		switch {
		case d.rep == nil && d.setup == nil:
			continue
		case d.setup != nil:
			xs = []float64{d.setup(rs.setupLed, rs.setupMS)}
		case d.untraced:
			for _, c := range plain {
				xs = append(xs, d.rep(c))
			}
		default:
			for _, c := range traced {
				xs = append(xs, d.rep(c))
			}
		}
		out[d.Name] = summarize(xs)
	}
	wall := func(reps []repSample) float64 {
		t := 0.0
		for _, s := range scaled(reps) {
			t += s.wallMS
		}
		return t
	}
	ov := wall(rs.traced)/wall(rs.plain) - 1
	setupMS := rs.setupMS / rs.slowdown
	out["bench.cycle_ms"] = summarize(cycleWalls(scaled(rs.traced), rs.kinds))
	out["setup.ms"] = summary{Median: setupMS, Q1: setupMS, Q3: setupMS, N: 1}
	out["bench.trace_overhead_frac"] = summary{Median: ov, Q1: ov, Q3: ov, N: len(rs.traced)}
	out["bench.host_slowdown"] = summary{Median: rs.slowdown, Q1: rs.slowdown, Q3: rs.slowdown, N: rs.samples}
	return out
}

func cycleWalls(reps []repSample, kinds int) []float64 {
	var out []float64
	for _, c := range cycles(reps, kinds) {
		out = append(out, c.wallMS)
	}
	return out
}

// report prints one line per metric and returns the result object.
func (rs *runStats) report(out io.Writer, defs []metricDef, vals map[string]summary) result {
	res := result{
		Correct:   rs.failed == 0 && len(rs.checks) == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(out, "%s %s %s %s q1=%s q3=%s n=%d\n", rs.name, d.Name,
			fmtNum(v.Median), d.Unit, fmtNum(v.Q1), fmtNum(v.Q3), v.N)
		res.Metrics[d.Name] = metric{Value: v.Median, Unit: d.Unit}
	}
	fmt.Fprintf(out, "%s host_slowdown %s ratio n=%d\n", rs.name, fmtNum(rs.slowdown), rs.samples)
	fmt.Fprintf(out, "%s counters %s\n", rs.name, rs.counters)
	fmt.Fprintf(out, "%s failed_frac %s ratio attempted=%d\n", rs.name,
		fmtNum(float64(rs.failed)/float64(max(rs.attempted, 1))), rs.attempted)
	for _, c := range rs.checks {
		fmt.Fprintf(out, "%s check-failed %s\n", rs.name, c)
	}
	return res
}

// reportUnscaled prints the end-to-end metrics as measured, before the
// host-speed scaling, one "<workload> unscaled <metric> ..." line each, so a
// claimed gain can be checked against the raw times too.
func (rs *runStats) reportUnscaled(out io.Writer) {
	vals := rs.e2eRaw()
	for _, d := range e2eMetrics {
		v := vals[d.Name]
		fmt.Fprintf(out, "%s unscaled %s %s %s q1=%s q3=%s n=%d\n", rs.name, d.Name,
			fmtNum(v.Median), d.Unit, fmtNum(v.Q1), fmtNum(v.Q3), v.N)
	}
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestOf is the counter digest of any JSON-encodable simulated output.
func digestOf(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(raw))
}

// resetPeakRSS returns freed heap to the OS and restarts the resident-set
// high-water mark, so peak_rss_mb covers the measured reps rather than one
// transient peak during set-up, whose height depends on when the collector
// happened to run.  Where the kernel does not offer the reset, the mark
// keeps counting from process start, so the error is ignored.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// probeSetup times one set-up in a fresh process: from starting this
// binary in -probe-setup mode until it reports ready, so process start, the
// Go runtime's and the simulator's package initialisation, and every lazily
// built structure are paid again.
func probeSetup(args []string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe printed %q, want ready", line)
	}
	return elapsed, nil
}
