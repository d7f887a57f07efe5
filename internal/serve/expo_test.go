package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cobra/internal/obs"
)

// The exposition goldens pin every /metrics line — family order, HELP and
// TYPE lines, names, labels, values and the OpenMetrics terminator — as
// served by obs.ServeMetrics (the batch tools' -metrics-addr endpoint) and
// by cobra-serve, in the classic and the OpenMetrics format.  Only values
// that depend on the clock or the Go runtime are masked.
// `go test ./internal/serve -run TestExpositionGolden -update` rewrites them.

// expoMetrics is a sink with fixed observations in every family.
func expoMetrics() *obs.Metrics {
	m := obs.NewMetrics()
	m.AddJobs(5)
	for i := 0; i < 4; i++ {
		m.JobStarted()
	}
	m.JobDone(false)
	m.JobDone(false)
	m.JobDone(true)
	m.AddCycles(1_234_567)
	m.AddInsts(987_654)
	m.AddEventDrops(17)
	m.AddCacheCorrupt(2)
	m.AddJournalReplayed(3)
	m.AddJournalSkipped(1)
	m.AddJobRetries(4)
	m.ObserveQueueWait(1500 * time.Microsecond)
	m.ObserveQueueWait(40 * time.Millisecond)
	m.ObserveJob(250*time.Millisecond, 500_000)
	m.ObserveJob(3*time.Second, 0)
	m.ObserveRequestEx(2*time.Millisecond, true, "4bf92f3577b34da6a3ce929d0e0e4736")
	m.ObserveRequestEx(300*time.Millisecond, false, "0af7651916cd43dd8448eb211c80319c")
	m.ObserveRequest(5*time.Millisecond, true)
	m.ObserveRunResources(obs.Resources{CPUUserMS: 240, GCCPUMS: 12.5, AllocBytes: 3 << 20})
	return m
}

var (
	// expoClock matches the sample value of a clock- or runtime-dependent
	// series: uptime, the aggregate simulation rate, and every go_* series.
	expoClock = regexp.MustCompile(`(?m)^((?:cobra_uptime_seconds|cobra_sim_kcycles_per_second|go_\S+) )\S+$`)
	// expoExemplarTS matches an exemplar's timestamp.
	expoExemplarTS = regexp.MustCompile(`(?m)( # \{trace_id="[0-9a-f]+"\} \S+) \S+$`)
)

func maskExpo(b []byte) []byte {
	b = expoClock.ReplaceAll(b, []byte("${1}<masked>"))
	return expoExemplarTS.ReplaceAll(b, []byte("${1} <ts>"))
}

// scrape GETs url with the given Accept header and returns the Content-Type
// and the masked body.
func scrape(t *testing.T, url, accept string) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.Header.Get("Content-Type"), maskExpo(body)
}

func TestExpositionGolden(t *testing.T) {
	addr, closeMetrics, err := obs.ServeMetrics("127.0.0.1:0", expoMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer closeMetrics()

	s, err := New(Config{Workers: 1, Metrics: expoMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	s.build = obs.Build{Path: "cobra", Version: "(devel)", GoVersion: "go1.99", Revision: "0123abcd", Dirty: true}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		classicType = "text/plain; version=0.0.4"
		omAccept    = "application/openmetrics-text; version=1.0.0"
		omType      = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	)
	for _, tc := range []struct{ file, url, accept, ctype string }{
		{"metrics_obs.txt", "http://" + addr + "/metrics", "", classicType},
		{"metrics_obs.om.txt", "http://" + addr + "/metrics", omAccept, omType},
		{"metrics_serve.txt", ts.URL + "/metrics", "", classicType},
		{"metrics_serve.om.txt", ts.URL + "/metrics", omAccept, omType},
	} {
		ctype, got := scrape(t, tc.url, tc.accept)
		if ctype != tc.ctype {
			t.Errorf("%s: Content-Type %q, want %q", tc.file, ctype, tc.ctype)
		}
		path := filepath.Join("testdata", "wire", tc.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", tc.file, got, want)
		}
	}
}
