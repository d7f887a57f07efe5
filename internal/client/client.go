// Package client is the tool-side counterpart of internal/serve: a small
// HTTP client that submits canonical RunSpecs to a cobra-serve daemon and
// waits for their results, riding out the failures a long-lived service
// exposes — connection refusals during a restart, 429 backpressure from a
// full queue, 503s while the daemon drains, and runs that vanish from the
// in-memory tables when an unjournaled server bounces.
//
// The safety argument is the spec digest.  Submission is idempotent: the
// digest covers everything that determines a run's outcome, so resubmitting
// the same spec after any failure either coalesces onto the in-flight run,
// hits the cache, or recomputes byte-identical bytes.  The client therefore
// retries freely — with capped exponential backoff plus full jitter, and
// honoring Retry-After when the server names a delay — without ever risking
// a duplicated side effect or a divergent answer.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

// Config shapes a Client.  Zero values select the documented defaults.
type Config struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP overrides the transport (default: a fresh http.Client with no
	// global timeout — deadlines come from the caller's context).
	HTTP *http.Client
	// MaxAttempts bounds how many times one logical request is tried before
	// the client gives up (default 8; 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the first retry delay; attempt n waits a full-jitter
	// draw from [0, min(BaseBackoff<<n, MaxBackoff)].  Default 200ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 5s).
	MaxBackoff time.Duration
	// Poll is the status-poll period while a run is queued or executing
	// (default 150ms).
	Poll time.Duration
	// Traceparent, when non-empty, is attached to every submission so the
	// daemon's request traces join the caller's distributed trace.
	Traceparent string
	// OnProgress, when non-nil, receives live progress frames for each run
	// while Run waits on it: Run opens the daemon's SSE progress stream in
	// the background and forwards every frame.  Purely cosmetic — a broken
	// stream never fails the run, and frames may stop arriving before the
	// result does.
	OnProgress func(interval.Progress)
	// Log receives one structured line per retry and resubmission; nil
	// discards.
	Log *slog.Logger
}

// Client talks to one cobra-serve daemon.  Safe for concurrent use.
type Client struct {
	cfg Config
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.BaseURL == "" {
		return nil, errors.New("client: empty BaseURL")
	}
	if !strings.HasPrefix(cfg.BaseURL, "http://") && !strings.HasPrefix(cfg.BaseURL, "https://") {
		return nil, fmt.Errorf("client: BaseURL %q is not an http(s) URL", cfg.BaseURL)
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 150 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Client{cfg: cfg}, nil
}

// Status is the envelope every /v1/runs response uses.
type Status = serve.Status

// Result is the daemon's stored run outcome.  Raw preserves the exact bytes
// the server returned, so callers can assert byte-identity against a local
// execution; Timings holds the marshaled serve.Timings.
type Result struct {
	serve.Result
	Raw json.RawMessage `json:"-"`
}

// ErrNotFound reports a digest the daemon does not know — not in flight,
// not cached, not failed.  After a restart of an unjournaled server this is
// the signal to resubmit.
var ErrNotFound = errors.New("client: run not found")

// progressGrace bounds how long Run waits, after the poll sees a run done,
// for the progress stream's terminal frame.
const progressGrace = time.Second

// RunError is a run the daemon executed and declared failed; retrying it
// would recompute the same failure, so the client reports it as permanent.
// Resources and Flight carry the daemon's post-mortem context when it sent
// any: the failed attempt's resource attribution and the flight-recorder
// tail around the failure.
type RunError struct {
	Digest    string
	Message   string
	Resources *obs.Resources
	Flight    []obs.FlightRecord
}

func (e *RunError) Error() string {
	return fmt.Sprintf("client: run %s failed on server: %s", e.Digest, e.Message)
}

// httpError is a non-2xx response the retry loop classifies.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration // > 0 when the server named a delay
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// retryable reports whether err is worth another attempt: transport errors
// (connection refused mid-restart), 429 backpressure, 503 draining, and
// transient 5xx all are; other HTTP errors are permanent.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.code == http.StatusTooManyRequests || he.code >= 500
	}
	var re *RunError
	if errors.As(err, &re) || errors.Is(err, ErrNotFound) {
		return false
	}
	// Everything else at this layer is a transport-level failure.
	return true
}

// Submit posts sp and returns the daemon's admission answer: a done Status
// carrying the result (cache hit) or a queued/running one.  The spec is
// canonicalized in place first, so sp's digest afterwards matches the
// daemon's.  Transport failures, 429, and 503 are retried with backoff.
func (c *Client) Submit(ctx context.Context, sp *spec.RunSpec) (Status, error) {
	if err := sp.Canonicalize(); err != nil {
		return Status{}, err
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return Status{}, err
	}
	return c.withRetry(ctx, "submit", func() (Status, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.cfg.BaseURL+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return Status{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.cfg.Traceparent != "" {
			req.Header.Set("traceparent", c.cfg.Traceparent)
		}
		return c.do(req, http.StatusOK, http.StatusAccepted)
	})
}

// Get fetches the status of a digest.  An unknown digest is ErrNotFound
// (permanent — the caller decides whether to resubmit).
func (c *Client) Get(ctx context.Context, digest string) (Status, error) {
	return c.withRetry(ctx, "get", func() (Status, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			c.cfg.BaseURL+"/v1/runs/"+digest, nil)
		if err != nil {
			return Status{}, err
		}
		return c.do(req, http.StatusOK)
	})
}

// Watch streams a run's live progress, invoking fn for every frame until the
// run reaches a terminal state, the stream breaks, or ctx is done.  It speaks
// SSE when the daemon does and falls back to the single-snapshot form
// otherwise.  Errors after the stream is open are reported as a nil return —
// progress is cosmetic and the poll loop still settles the run.
func (c *Client) Watch(ctx context.Context, digest string, fn func(interval.Progress)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.cfg.BaseURL+"/v1/runs/"+digest+"/progress", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &httpError{code: resp.StatusCode, msg: "progress stream refused"}
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		// Long-poll fallback: one snapshot.
		var p interval.Progress
		if jerr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&p); jerr != nil {
			return jerr
		}
		fn(p)
		return nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var p interval.Progress
		if jerr := json.Unmarshal([]byte(line[len("data: "):]), &p); jerr != nil {
			continue
		}
		fn(p)
		if p.Done {
			return nil
		}
	}
	return nil // broken stream: the caller's poll loop still settles the run
}

// Run is the whole conversation: submit sp, poll until it settles, and
// return the parsed Result.  It survives daemon restarts mid-run — a 404
// for a digest the daemon accepted means an unjournaled server lost it, and
// the client resubmits (safe: execution is deterministic and keyed by
// digest).  A run the daemon declares failed returns a *RunError.  When
// Config.OnProgress is set, the daemon's live progress stream runs alongside
// the poll loop and every frame is forwarded to it.
func (c *Client) Run(ctx context.Context, sp *spec.RunSpec) (*Result, error) {
	st, err := c.Submit(ctx, sp)
	if err != nil {
		return nil, err
	}
	var watchDone chan struct{}
	if c.cfg.OnProgress != nil && st.Status != "done" && st.Status != "failed" {
		wctx, cancel := context.WithCancel(ctx)
		defer cancel()
		watchDone = make(chan struct{})
		go func() {
			defer close(watchDone)
			if werr := c.Watch(wctx, st.Digest, c.cfg.OnProgress); werr != nil && wctx.Err() == nil {
				c.cfg.Log.Debug("client: progress stream unavailable",
					"run_digest", st.Digest, "error", werr.Error())
			}
		}()
		defer func() { cancel(); <-watchDone }() // no frames delivered after Run returns
	}
	for st.Status != "done" {
		if st.Status == "failed" {
			return nil, &RunError{Digest: st.Digest, Message: st.Error,
				Resources: st.Resources, Flight: st.Flight}
		}
		if err := sleep(ctx, c.cfg.Poll); err != nil {
			return nil, err
		}
		next, err := c.Get(ctx, st.Digest)
		switch {
		case errors.Is(err, ErrNotFound):
			// The daemon restarted without a journal (or abandoned the queue
			// on a timed-out drain) and forgot the run.  Resubmission is
			// idempotent by digest, so just start the conversation over.
			c.cfg.Log.Warn("client: run vanished from server; resubmitting",
				"run_digest", st.Digest)
			next, err = c.Submit(ctx, sp)
			if err != nil {
				return nil, err
			}
		case err != nil:
			return nil, err
		}
		st = next
	}
	if watchDone != nil {
		// The poll can see done before the stream delivers its terminal
		// frame; let the watcher finish (it returns on that frame) before
		// the deferred cancel cuts it off.
		select {
		case <-watchDone:
		case <-ctx.Done():
		case <-time.After(progressGrace):
		}
	}
	res := &Result{Raw: st.Result}
	if err := json.Unmarshal(st.Result, &res.Result); err != nil {
		return nil, fmt.Errorf("client: run %s: corrupt result payload: %w", st.Digest, err)
	}
	return res, nil
}

// do executes one HTTP exchange and decodes the envelope; any status other
// than the accepted ok codes becomes a classified error.
func (c *Client) do(req *http.Request, ok ...int) (Status, error) {
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return Status{}, err
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			var st Status
			if err := json.Unmarshal(raw, &st); err != nil {
				return Status{}, fmt.Errorf("client: decoding HTTP %d response: %w", resp.StatusCode, err)
			}
			return st, nil
		}
	}
	if resp.StatusCode == http.StatusNotFound {
		return Status{}, ErrNotFound
	}
	msg := strings.TrimSpace(string(raw))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &doc) == nil && doc.Error != "" {
		msg = doc.Error
	}
	return Status{}, &httpError{code: resp.StatusCode, msg: msg,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
}

// withRetry drives one logical request through the retry policy: up to
// MaxAttempts tries, capped exponential backoff with full jitter between
// them, the server's Retry-After respected as a floor when present.
func (c *Client) withRetry(ctx context.Context, op string, try func() (Status, error)) (Status, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt - 1)
			var he *httpError
			if errors.As(lastErr, &he) && he.retryAfter > d {
				d = he.retryAfter
			}
			c.cfg.Log.Warn("client: retrying",
				"op", op, "attempt", attempt, "of", c.cfg.MaxAttempts-1,
				"backoff_ms", d.Milliseconds(), "error", lastErr.Error())
			if err := sleep(ctx, d); err != nil {
				return Status{}, err
			}
		}
		st, err := try()
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return Status{}, ctx.Err()
		}
		if !retryable(err) {
			return Status{}, err
		}
		lastErr = err
	}
	return Status{}, fmt.Errorf("client: %s gave up after %d attempts: %w",
		op, c.cfg.MaxAttempts, lastErr)
}

// backoff draws the wait before retry attempt n: full jitter over a capped
// exponential window, so a thundering herd of clients retrying against a
// restarting daemon spreads out instead of synchronizing.
func (c *Client) backoff(n int) time.Duration {
	window := c.cfg.BaseBackoff << min(n, 20)
	if window > c.cfg.MaxBackoff || window <= 0 {
		window = c.cfg.MaxBackoff
	}
	return time.Duration(rand.Int63n(int64(window)) + 1) //nolint:gosec // jitter, not crypto
}

// parseRetryAfter understands the delta-seconds form of Retry-After (the
// form serve emits); anything else is "no hint".
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
