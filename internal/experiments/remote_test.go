package experiments

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/serve"
)

// TestRemoteMatchesLocal: a grid executed through a remote Backend — specs
// submitted to an in-process cobra-serve daemon — renders the exact same
// table as the in-process runner, because each grid point carries the same
// derived seed either way.  This is the tentpole equivalence behind
// `cobra-experiments -server`.
func TestRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation grid twice")
	}
	srv, err := serve.New(serve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	be, err := backend.NewRemote(client.Config{BaseURL: ts.URL, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	local := Config{Insts: 30_000, Seed: 42, Parallelism: 4}
	remote := local
	remote.Backend = be
	want := TageLatency(local).String()
	got := TageLatency(remote).String()
	if got != want {
		t.Errorf("remote table differs from local:\n--- local ---\n%s--- remote ---\n%s", want, got)
	}

	// AblationWidth's 8x2-byte cells travel as specs too: the daemon lays
	// each proxy out for the spec's fetch geometry, exactly as locally.
	if w, g := AblationWidth(local).String(), AblationWidth(remote).String(); g != w {
		t.Errorf("remote ablation-width differs:\n--- local ---\n%s--- remote ---\n%s", w, g)
	}
}
