package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobra/internal/interval"
)

// cannedTransport answers every request with one fixed response.
type cannedTransport struct {
	code        int
	contentType string
	body        []byte
}

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: c.code,
		Header:     http.Header{"Content-Type": {c.contentType}},
		Body:       io.NopCloser(bytes.NewReader(c.body)),
		Request:    req,
	}, nil
}

// cannedClient is a client whose every exchange returns code and body, and
// which never retries.
func cannedClient(t *testing.T, code int, contentType string, body []byte) *Client {
	c, err := New(Config{BaseURL: "http://daemon", MaxAttempts: 1,
		HTTP: &http.Client{Transport: cannedTransport{code, contentType, body}}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wireSeeds returns the daemon's pinned response bodies with the given
// prefix, the shapes a well-behaved server sends.
func wireSeeds(f *testing.F, prefix string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "serve", "testdata", "wire", prefix+"*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no %s* wire goldens (%v)", prefix, err)
	}
	var seeds [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// remarshals fails t unless v marshals, and its bytes decode into a fresh
// *T that marshals to the same bytes.
func remarshals[T any](t *testing.T, v *T) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("decoded %T does not marshal: %v", v, err)
	}
	var back T
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("marshaled %T does not decode: %v\n%s", v, err, data)
	}
	if again, err := json.Marshal(&back); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("%T changed on a round trip:\n%s\n%s", v, data, again)
	}
}

// FuzzWatch: Watch reads a progress stream from the network without
// panicking.  Every frame it delivers is a Progress that re-marshals, and
// no frame follows the first one marked done.  With sse unset the body is
// the single-snapshot fallback instead of an SSE stream.
func FuzzWatch(f *testing.F) {
	var frames bytes.Buffer
	for _, seed := range wireSeeds(f, "progress_") {
		f.Add(seed, false)
		frames.WriteString("event: progress\ndata: " + strings.TrimSpace(string(seed)) + "\n\n")
	}
	f.Add(frames.Bytes(), true)
	f.Add([]byte("data: {\"done\":true}\n\ndata: {\"insts\":1}\n\n"), true)
	f.Add([]byte(": keepalive\ndata: {\"window\":{\"providers\":[{}]}}\ndata: {"), true)
	f.Fuzz(func(t *testing.T, body []byte, sse bool) {
		contentType := "application/json"
		if sse {
			contentType = "text/event-stream"
		}
		done := false
		err := cannedClient(t, http.StatusOK, contentType, body).Watch(context.Background(), fakeDigest,
			func(p interval.Progress) {
				if done {
					t.Fatalf("frame %+v delivered after the done frame", p)
				}
				done = p.Done
				remarshals(t, &p)
			})
		if sse && err != nil {
			t.Fatalf("an open SSE stream returned %v, want nil", err)
		}
	})
}

// FuzzStatusEnvelope: the /v1/runs envelope decode in do turns any status
// code and body into a Status or an error, never a panic.  A Status it
// returns re-marshals; a 404 is ErrNotFound, and any other refused code is
// an error.
func FuzzStatusEnvelope(f *testing.F) {
	for _, seed := range wireSeeds(f, "status_") {
		f.Add(uint16(http.StatusOK), seed)
	}
	f.Add(uint16(http.StatusNotFound), []byte(`{"error":"unknown run"}`))
	f.Add(uint16(http.StatusTooManyRequests), []byte(`{"error":"queue full (4 pending)"}`))
	f.Add(uint16(http.StatusInternalServerError), []byte("oops"))
	f.Add(uint16(http.StatusOK), []byte(`{"result":null,"flight":[{}]}`))
	f.Fuzz(func(t *testing.T, code uint16, body []byte) {
		status := 200 + int(code)%400
		st, err := cannedClient(t, status, "application/json", body).Get(context.Background(), fakeDigest)
		switch {
		case status == http.StatusNotFound:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("HTTP 404 returned %v, want ErrNotFound", err)
			}
		case status != http.StatusOK:
			if err == nil {
				t.Fatalf("HTTP %d returned no error", status)
			}
		case err == nil:
			remarshals(t, &st)
		}
	})
}
