package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/client"
	"cobra/internal/obs"
	"cobra/internal/runner"
	"cobra/internal/serve"
	"cobra/internal/spec"
	"cobra/internal/stats"
	"cobra/internal/workloads"
)

var serveMixed = workload{
	name: "serve-mixed",
	why: "closed loop of 2 clients against an in-process cobra-serve: 25% cold misses " +
		"that simulate and write journal and disk cache, 75% cache-hit reads",
	threads: serveClients,
	setup:   setupServeMixed,
}

// Load shape: serveClients closed-loop clients, each waiting for a reply
// before its next request, against a server with as many workers.  A cycle
// is serveChunks reps, each against a fresh server, of serveChunkLen
// requests per client.
const (
	serveClients  = 2
	serveChunks   = 5
	serveChunkLen = 36
	servePoll     = 2 * time.Millisecond
	serveChecked  = 8 // misses compared against a local spec.Exec
)

type serveReq struct {
	spec *spec.RunSpec // canonical
	miss bool
	of   int // for a hit: index in the stream of the miss it repeats
}

// serveChunk is one rep's requests, one stream per client.
type serveChunk [serveClients][]serveReq

type serveInst struct {
	workdir string
	chunks  []serveChunk
	checked bool
}

func setupServeMixed(cfg config, led *ledger) (instance, error) {
	chunks, chunkLen, insts := serveChunks, serveChunkLen, uint64(20_000)
	if cfg.quick {
		chunks, chunkLen, insts = 1, 8, 2_000
	}
	names := workloads.Names()
	if err := led.timeMS("setup.workloads", func() error {
		for _, n := range names {
			if _, err := workloads.Get(n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	in := &serveInst{workdir: cfg.workdir}
	rng := runner.Derive(cfg.seed, 1<<20)
	next := func(n int) int {
		rng = runner.Derive(rng, 0)
		return int(rng % uint64(n))
	}
	// The misses of a cycle cover every preset x workload pair equally often
	// (3 rounds of 30 at full size), each round in a seed-drawn order, so the
	// seed changes which run lands where but not how much simulation a cycle
	// holds.
	var combos [][2]string
	for _, p := range spec.PresetNames() {
		for _, n := range names {
			combos = append(combos, [2]string{p, n})
		}
	}
	var order [][2]string
	for len(order) < chunks*serveClients*chunkLen/4 {
		for _, i := range permutation(len(combos), next) {
			order = append(order, combos[i])
		}
	}
	for k := 0; k < chunks; k++ {
		var ch serveChunk
		for c := range ch {
			// Each client repeats only its own earlier misses, which have
			// completed by then, so every repeat is a true cache hit.
			kinds := make([]bool, chunkLen) // true = miss; the first request is one
			kinds[0] = true
			for _, i := range permutation(chunkLen-1, next)[:chunkLen/4-1] {
				kinds[1+i] = true
			}
			var misses []int
			for i, miss := range kinds {
				if !miss {
					of := misses[next(len(misses))]
					ch[c] = append(ch[c], serveReq{spec: ch[c][of].spec, of: of})
					continue
				}
				pair := order[0]
				order = order[1:]
				s, err := spec.Preset(pair[0])
				if err != nil {
					return nil, err
				}
				s.Workload, s.Insts = pair[1], insts
				s.Seed = runner.Derive(cfg.seed, uint64(k<<20|c<<16|i))
				if err := s.Canonicalize(); err != nil {
					return nil, err
				}
				misses = append(misses, i)
				ch[c] = append(ch[c], serveReq{spec: s, miss: true})
			}
		}
		in.chunks = append(in.chunks, ch)
	}
	err := led.timeMS("setup.serve_start", func() error {
		sv, err := startServer(cfg.workdir, nil)
		if err != nil {
			return err
		}
		return sv.stop()
	})
	return in, err
}

// permutation returns a Fisher-Yates shuffle of 0..n-1 drawn from next.
func permutation(n int, next func(int) int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// liveServer is one in-process cobra-serve on a loopback listener, with a
// fresh cache directory, and the client that drives it.
type liveServer struct {
	dir     string
	srv     *serve.Server
	hs      *httptest.Server
	tp      *http.Transport
	cl      *client.Client
	retries atomic.Int64
}

// startServer starts a server and its client.  With a ledger, the client's
// HTTP exchanges go through a timedTransport that books into it.
func startServer(workdir string, timed *ledger) (*liveServer, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: serveClients, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ls := &liveServer{dir: dir, srv: srv, hs: httptest.NewServer(srv.Handler()),
		tp: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	var rt http.RoundTripper = ls.tp
	if timed != nil {
		rt = timedTransport{inner: ls.tp, led: timed}
	}
	ls.cl, err = client.New(client.Config{
		BaseURL: ls.hs.URL, Poll: servePoll, HTTP: &http.Client{Transport: rt},
		Log: slog.New(retryCounter{&ls.retries}),
	})
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

func (ls *liveServer) stop() error {
	ls.hs.Close()
	ls.tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// timedTransport wraps the client's HTTP transport in traced reps, which
// therefore call client.Run exactly as untraced reps do.  It times each
// submission (POST /v1/runs, its response read in full), reads from the
// answer whether the cache served it, and counts the status polls
// (GET /v1/runs/{digest}).  A submission made under a client.Run span gets a
// child span.
type timedTransport struct {
	inner http.RoundTripper
	led   *ledger
}

type spanKey struct{}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/runs/") {
			t.led.add("client.polls", 1)
		}
		return t.inner.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(*obs.ActiveSpan)
	sp := parent.Child("client", "POST /v1/runs")
	defer sp.End()
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	t.led.addMS("client.submit", msSince(t0))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		t.led.add("serve.requests", 1)
		var st client.Status
		if json.Unmarshal(body, &st) == nil && st.Cached {
			t.led.add("serve.hits", 1)
		}
	}
	return resp, nil
}

// retryCounter is a slog handler that counts the client's retry lines.
type retryCounter struct{ n *atomic.Int64 }

func (h retryCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h retryCounter) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h retryCounter) WithGroup(string) slog.Handler            { return h }
func (h retryCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "client: retrying" {
		h.n.Add(1)
	}
	return nil
}

// kinds: each rep is one chunk of requests against a fresh server.
func (in *serveInst) kinds() int { return len(in.chunks) }

func (in *serveInst) rep(kind int, led *ledger, tr *tracer) (repResult, error) {
	var r repResult
	ch := in.chunks[kind]
	var timed *ledger
	if tr != nil {
		timed = led
	}
	ls, err := startServer(in.workdir, timed)
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var (
		wg     sync.WaitGroup
		lat    [serveClients][]float64
		got    [serveClients][]*client.Result
		failed atomic.Int64
	)
	t0 := time.Now()
	for c := range ch {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = make([]*client.Result, len(ch[c]))
			for i, q := range ch[c] {
				t1 := time.Now()
				res, err := in.request(ctx, ls.cl, led, tr, q)
				lat[c] = append(lat[c], msSince(t1))
				switch {
				case err != nil:
					failed.Add(1)
				case !q.miss && (got[c][q.of] == nil || !bytes.Equal(res.Raw, got[c][q.of].Raw)):
					failed.Add(1) // a hit must replay the miss's bytes exactly
				}
				got[c][i] = res
			}
		}(c)
	}
	wg.Wait()
	r.wallMS = msSince(t0)
	led.add("client.retries", float64(ls.retries.Load()))
	if err := ls.stop(); err != nil {
		return r, err
	}
	r.failed = int(failed.Load())

	var sims []*stats.Sim
	var checkSpecs []*spec.RunSpec
	for c, stream := range ch {
		r.opsMS = append(r.opsMS, lat[c]...)
		for i, q := range stream {
			if !q.miss {
				continue
			}
			if got[c][i] == nil || got[c][i].Stats == nil {
				r.failed++
				continue
			}
			sims = append(sims, got[c][i].Stats)
			checkSpecs = append(checkSpecs, q.spec)
		}
	}
	r.counters = digestOf(sims)
	if !in.checked {
		in.checked = true
		for i := 0; i < serveChecked && i < len(sims); i++ {
			out, err := spec.Exec(checkSpecs[i], spec.Attach{})
			if err != nil || digestOf(out.Stats) != digestOf(sims[i]) {
				r.failed++
			}
		}
	}
	return r, nil
}

// request runs one request through client.Run, in traced and untraced reps
// alike, and books a miss's server-side timings.
func (in *serveInst) request(ctx context.Context, cl *client.Client, led *ledger, tr *tracer, q serveReq) (*client.Result, error) {
	t0 := time.Now()
	sp := tr.span("client", "client.Run")
	if sp != nil {
		ctx = context.WithValue(ctx, spanKey{}, sp) // parents the transport's POST span
	}
	res, err := cl.Run(ctx, q.spec.Clone())
	sp.End()
	if err != nil || !q.miss {
		return res, err
	}
	// Cached replays carry the original run's timings, so only misses are
	// booked.
	var tm serve.Timings
	if err := json.Unmarshal(res.Timings, &tm); err != nil {
		return res, fmt.Errorf("miss result without timings: %v", err)
	}
	led.addMS("runner.overhead", tm.ExecMS-tm.TotalMS)
	led.add("serve.job_retries", float64(res.Retries))
	led.add("sim.kinst", float64(q.spec.Insts+q.spec.Warmup)/1e3)
	if res.Stats != nil {
		led.add("uarch.kcycles", float64(res.Stats.Cycles)/1e3)
	}
	if tr != nil {
		led.addTimings(tm.Timings)
		led.addMS("serve.queue_wait", tm.QueueWaitMS)
		led.addMS("serve.exec", tm.ExecMS)
		// Everything a miss waits for besides the queue and the execution:
		// HTTP, admission, the journal and cache fsyncs, render, and the
		// poll period.
		led.addMS("client.miss_overhead", msSince(t0)-tm.QueueWaitMS-tm.ExecMS)
		led.add("serve.misses", 1)
	}
	return res, nil
}

func (in *serveInst) close() {}
