package obs

import (
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)

// promExemplar matches the OpenMetrics exemplar suffix that may follow a
// bucket sample: `# {label="value"} <value> [<unix-seconds>]`.
var promExemplar = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\} ([0-9.eE+-]+)( [0-9]+\.[0-9]+)?$`)

// normLabels canonicalizes a label block: sorted pairs, braces always present.
func normLabels(labels string) string {
	trimmed := strings.Trim(labels, "{}")
	if trimmed == "" {
		return "{}"
	}
	pairs := strings.Split(trimmed, ",")
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}

// promHist is one parsed histogram series: the cumulative bucket counts in
// exposition order plus the _sum and _count samples.
type promHist struct {
	les     []float64
	buckets []float64
	sum     float64
	count   float64
	hasSum  bool
	hasCnt  bool
}

// parsePromText validates every line of a Prometheus text exposition (HELP,
// TYPE, or sample) and collects the histogram series keyed by
// "family{labels-without-le}".
func parsePromText(t *testing.T, text string) map[string]*promHist {
	t.Helper()
	hists := map[string]*promHist{}
	histFamilies := map[string]bool{}
	get := func(key string) *promHist {
		if hists[key] == nil {
			hists[key] = &promHist{}
		}
		return hists[key]
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || line == "# EOF" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			if parts[3] == "histogram" {
				histFamilies[parts[2]] = true
			}
			continue
		}
		sample, exemplar, hasEx := strings.Cut(line, " # ")
		m := promSample.FindStringSubmatch(sample)
		if m == nil {
			t.Errorf("line is not a valid Prometheus sample: %q", line)
			continue
		}
		name, labels := m[1], m[2]
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("sample %q has non-numeric value: %v", line, err)
			continue
		}
		exVal := math.NaN()
		if hasEx {
			if !strings.HasSuffix(name, "_bucket") {
				t.Errorf("exemplar on a non-bucket sample: %q", line)
			}
			em := promExemplar.FindStringSubmatch(exemplar)
			if em == nil {
				t.Errorf("malformed exemplar %q in %q", exemplar, line)
			} else if exVal, err = strconv.ParseFloat(em[1], 64); err != nil {
				t.Errorf("exemplar value in %q: %v", line, err)
			}
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			family := strings.TrimSuffix(name, "_bucket")
			if !histFamilies[family] {
				t.Errorf("bucket sample %q without a histogram TYPE for %s", line, family)
				continue
			}
			le := math.NaN()
			var rest []string
			for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if v, ok := strings.CutPrefix(kv, `le="`); ok {
					le, err = strconv.ParseFloat(strings.TrimSuffix(v, `"`), 64)
					if err != nil {
						t.Errorf("bad le in %q: %v", line, err)
					}
					continue
				}
				rest = append(rest, kv)
			}
			sort.Strings(rest)
			h := get(family + "{" + strings.Join(rest, ",") + "}")
			h.les = append(h.les, le)
			h.buckets = append(h.buckets, val)
			if hasEx && !math.IsNaN(exVal) && !math.IsInf(le, +1) && exVal > le {
				t.Errorf("exemplar value %g outside its le=%g bucket: %q", exVal, le, line)
			}
		case strings.HasSuffix(name, "_sum") && histFamilies[strings.TrimSuffix(name, "_sum")]:
			h := get(strings.TrimSuffix(name, "_sum") + normLabels(labels))
			h.sum, h.hasSum = val, true
		case strings.HasSuffix(name, "_count") && histFamilies[strings.TrimSuffix(name, "_count")]:
			h := get(strings.TrimSuffix(name, "_count") + normLabels(labels))
			h.count, h.hasCnt = val, true
		}
	}
	// Every histogram family that declared a TYPE must have produced series.
	for fam := range histFamilies {
		found := false
		for key := range hists {
			if strings.HasPrefix(key, fam+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("histogram family %s declared but has no series", fam)
		}
	}
	// Structural invariants: ascending le, non-decreasing cumulative counts,
	// terminal +Inf bucket equal to _count.
	for key, h := range hists {
		if !h.hasSum || !h.hasCnt {
			t.Errorf("%s missing _sum or _count", key)
			continue
		}
		if len(h.les) == 0 || !math.IsInf(h.les[len(h.les)-1], +1) {
			t.Errorf("%s does not end with a +Inf bucket: %v", key, h.les)
			continue
		}
		for i := 1; i < len(h.les); i++ {
			if !(h.les[i] > h.les[i-1]) {
				t.Errorf("%s le bounds not ascending at %d: %v", key, i, h.les)
			}
			if h.buckets[i] < h.buckets[i-1] {
				t.Errorf("%s cumulative counts decrease at le=%g: %v", key, h.les[i], h.buckets)
			}
		}
		if inf := h.buckets[len(h.buckets)-1]; inf != h.count {
			t.Errorf("%s +Inf bucket %g != _count %g", key, inf, h.count)
		}
	}
	return hists
}

func TestExpBucketsAscending(t *testing.T) {
	b := ExpBuckets(0.001, 2, 16)
	if len(b) != 16 {
		t.Fatalf("got %d bounds", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending: %v", b)
		}
	}
	if b[0] != 0.001 || math.Abs(b[1]-0.002) > 1e-12 {
		t.Errorf("unexpected ladder start: %v", b[:2])
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram("x_seconds", "help", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // must be ignored
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %g, want %g", got, want)
	}
	var nilH *Histogram
	nilH.Observe(1) // nil receiver is a no-op
}

// TestMetricsExpoHistograms observes known values through the Metrics facade
// and checks the whole exposition is well-formed Prometheus text with
// self-consistent histograms.
func TestMetricsExpoHistograms(t *testing.T) {
	m := NewMetrics()
	m.ObserveQueueWait(3 * time.Millisecond)
	m.ObserveQueueWait(40 * time.Millisecond)
	m.ObserveJob(100*time.Millisecond, 1_000_000)
	m.ObserveRequest(5*time.Millisecond, true)
	m.ObserveRequest(200*time.Millisecond, false)
	m.ObserveRequest(210*time.Millisecond, false)

	hists := parsePromText(t, m.exposition(false, nil))
	expect := map[string]float64{
		"cobra_serve_queue_wait_seconds{}":     2,
		"cobra_job_exec_seconds{}":             1,
		"cobra_job_insts_per_second{}":         1,
		`cobra_request_seconds{result="hit"}`:  1,
		`cobra_request_seconds{result="miss"}`: 2,
	}
	for key, want := range expect {
		h := hists[key]
		if h == nil {
			t.Errorf("missing histogram series %s (have %v)", key, keys(hists))
			continue
		}
		if h.count != want {
			t.Errorf("%s count = %g, want %g", key, h.count, want)
		}
	}
	if h := hists[`cobra_request_seconds{result="miss"}`]; h != nil {
		if want := 0.200 + 0.210; math.Abs(h.sum-want) > 1e-9 {
			t.Errorf("miss sum = %g, want %g", h.sum, want)
		}
	}
	if got := m.RequestCount(true); got != 1 {
		t.Errorf("RequestCount(hit) = %d, want 1", got)
	}
	if got := m.RequestCount(false); got != 2 {
		t.Errorf("RequestCount(miss) = %d, want 2", got)
	}
}

// TestOpenMetricsExemplars: ObserveRequestEx attaches trace-id exemplars
// that render only in the OpenMetrics exposition, with valid syntax and
// values inside their buckets; the classic exposition stays exemplar-free.
func TestOpenMetricsExemplars(t *testing.T) {
	m := NewMetrics()
	m.ObserveRequestEx(5*time.Millisecond, true, "aaaabbbbccccdddd0000111122223333")
	m.ObserveRequestEx(200*time.Millisecond, false, "ffffeeeeddddcccc0000111122223333")

	om := m.exposition(true, nil)
	parsePromText(t, om) // exemplar syntax + bucket invariants
	if !strings.Contains(om, `# {trace_id="ffffeeeeddddcccc0000111122223333"}`) {
		t.Errorf("miss exemplar missing from OpenMetrics exposition:\n%s", om)
	}
	if !strings.Contains(om, `# {trace_id="aaaabbbbccccdddd0000111122223333"}`) {
		t.Errorf("hit exemplar missing from OpenMetrics exposition:\n%s", om)
	}

	classic := m.exposition(false, nil)
	parsePromText(t, classic)
	if strings.Contains(classic, " # {") {
		t.Error("classic Prometheus exposition leaked exemplar syntax")
	}

	// OpenMetrics counter families must be declared without the _total
	// suffix while their samples keep it.
	for _, line := range strings.Split(om, "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.Contains(line, " counter") &&
			strings.Contains(line, "_total ") {
			t.Errorf("OM counter family declared with _total suffix: %q", line)
		}
	}
	if !strings.Contains(om, "\ncobra_cache_corrupt_total ") {
		t.Errorf("OM counter samples lost their _total suffix:\n%s", om)
	}
	if !strings.Contains(om, "# TYPE cobra_cache_corrupt counter") {
		t.Errorf("OM counter family kept its _total suffix:\n%s", om)
	}
}

// TestRunResourceFamilies: per-run attribution lands in the three new
// histogram families with the right labels.
func TestRunResourceFamilies(t *testing.T) {
	m := NewMetrics()
	m.ObserveRunResources(Resources{CPUUserMS: 120, GCCPUMS: 8, AllocBytes: 1 << 20})
	hists := parsePromText(t, m.exposition(false, nil))
	for _, key := range []string{
		`cobra_run_cpu_seconds{class="user"}`,
		`cobra_run_cpu_seconds{class="gc"}`,
		"cobra_run_alloc_bytes{}",
	} {
		h := hists[key]
		if h == nil {
			t.Errorf("missing histogram series %s (have %v)", key, keys(hists))
			continue
		}
		if h.count != 1 {
			t.Errorf("%s count = %g, want 1", key, h.count)
		}
	}
}

// TestRuntimeExpoWellFormed: the runtime/metrics-backed families pass the
// same strict validator as the process metrics, in both exposition flavors.
func TestRuntimeExpoWellFormed(t *testing.T) {
	classic, om := NewMetrics().exposition(false, nil), NewMetrics().exposition(true, nil)
	for name, text := range map[string]string{"classic": classic, "openmetrics": om} {
		hists := parsePromText(t, text)
		for _, fam := range []string{"go_goroutines", "go_heap_objects_bytes", "go_heap_allocs_bytes_total"} {
			if !strings.Contains(text, "\n"+fam+" ") {
				t.Errorf("%s: family %s missing:\n%s", name, fam, text)
			}
		}
		for _, fam := range []string{"go_gc_pause_seconds{}", "go_sched_latency_seconds{}"} {
			if hists[fam] == nil {
				t.Errorf("%s: histogram %s missing (have %v)", name, fam, keys(hists))
			}
		}
	}
	if !strings.Contains(om, "# TYPE go_gc_cycles counter") {
		t.Error("OM runtime counter family kept its _total suffix")
	}
	if !strings.Contains(classic, "# TYPE go_gc_cycles_total counter") {
		t.Error("classic runtime counter family lost its _total suffix")
	}
}

func keys(m map[string]*promHist) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestProgressLineStable pins the progress-report format: sweep users parse
// it with cut/awk, so changes must be deliberate.
func TestProgressLineStable(t *testing.T) {
	m := NewMetrics()
	m.AddJobs(4)
	m.JobStarted()
	m.JobStarted()
	m.JobDone(false)
	m.AddCycles(2_000_000)
	m.AddInsts(1_500_000)
	line := m.ProgressLine()
	want := regexp.MustCompile(
		`^\[runner\] 1/4 jobs done \(1 running, 0 failed\)  2\.0 Mcycles  1\.5 Minsts  [0-9.]+ kcycles/s  [0-9a-z.]+ elapsed$`)
	if !want.MatchString(line) {
		t.Errorf("progress line drifted from the documented shape:\n%s", line)
	}
}
