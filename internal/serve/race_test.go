package serve

// Race test for the service's shared state: the result cache, the
// singleflight table, and the workload fingerprint memoization all sit on the
// request path of every POST.  This test hammers them from many goroutines at
// once and relies on the CI -race job to catch unsynchronized access; the
// functional assertions (every digest eventually done, one set of result
// bytes per digest) double as a consistency check.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cobra/internal/workloads"
)

func TestConcurrentCacheAndFingerprint(t *testing.T) {
	s, err := New(Config{Workers: 4, QueueLen: 256, CacheEntries: 8, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A handful of distinct specs, each submitted by many goroutines, so the
	// cache sees concurrent hits, misses, and inserts for the same keys while
	// the tiny CacheEntries bound forces eviction churn.
	const distinct = 6
	const clients = 8
	const rounds = 10

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sp := smallSpec(uint64(1000 + (c+r)%distinct))
				sp.Insts = 5_000
				// Odd clients submit with a traceparent so the span recorder
				// and trace store see concurrent ingestion too.
				var code int
				var rs Status
				if c%2 == 1 {
					code, rs = postSpecTraced(t, ts, sp,
						"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
				} else {
					code, rs = postSpec(t, ts, sp)
				}
				switch code {
				case http.StatusOK, http.StatusAccepted:
				default:
					t.Errorf("client %d round %d: HTTP %d", c, r, code)
					continue
				}
				// Interleave the read paths the daemon serves concurrently.
				for _, path := range []string{"/v1/runs/" + rs.Digest,
					"/v1/runs/" + rs.Digest + "/trace", "/healthz", "/healthz/ready", "/metrics"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						continue
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}(c)
	}
	// Meanwhile hammer the workload layer directly: Fingerprint's memo map
	// and Get's program construction are hit by every spec canonicalization.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, err := workloads.Fingerprint("fib", 4)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				for _, name := range []string{"fib", "dhrystone", "sort"} {
					if _, err := workloads.Get(name); err != nil {
						t.Errorf("Get(%q): %v", name, err)
					}
					if _, err := workloads.Fingerprint(name, 4); err != nil {
						t.Errorf("Fingerprint(%q): %v", name, err)
					}
				}
				if got, _ := workloads.Fingerprint("fib", 4); got != want {
					t.Errorf("fingerprint moved under concurrency: %s vs %s", got, want)
				}
			}
		}()
	}
	wg.Wait()

	// Every distinct spec converges to exactly one stored result; concurrent
	// duplicate submissions must not have produced divergent bytes.
	for i := 0; i < distinct; i++ {
		sp := smallSpec(uint64(1000 + i))
		sp.Insts = 5_000
		_, rs := postSpec(t, ts, sp)
		first := waitDone(t, ts, rs.Digest)
		if first.Status != "done" {
			t.Fatalf("spec %d: %+v", i, first)
		}
		again := waitDone(t, ts, rs.Digest)
		if !bytes.Equal(first.Result, again.Result) {
			t.Errorf("spec %d: result bytes changed between reads", i)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
