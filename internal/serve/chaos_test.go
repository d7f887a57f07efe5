package serve_test

// Chaos harness: drives a real cobra-serve subprocess through the failures
// the crash-safety machinery exists for — SIGKILL mid-run, cache corruption
// on disk, graceful drains — and asserts the recovery invariants:
//
//   - every digest the daemon accepted before a SIGKILL completes after a
//     restart, with counters byte-identical to a direct spec.Exec
//   - corrupted cache entries are quarantined (*.corrupt + counter) and
//     recomputed, never served
//   - a retrying client bridging the restart gets the right answer
//   - a clean drain leaves nothing to replay
//
// The harness needs the go toolchain to build the binary; skip under -short.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cobra/internal/client"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing daemon output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildServeBinary compiles cmd/cobra-serve once per test binary.
var buildOnce sync.Once
var servePath string
var buildErr error

func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cobra-chaos-bin-")
		if err != nil {
			buildErr = err
			return
		}
		servePath = filepath.Join(dir, "cobra-serve")
		cmd := exec.Command("go", "build", "-o", servePath, "cobra/cmd/cobra-serve")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building cobra-serve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return servePath
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/serve → repo root
}

// daemon is one running cobra-serve subprocess.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *syncBuffer
	exited chan error
}

var listenRE = regexp.MustCompile(`url=(http://\S+)`)

// startDaemon launches the binary over dir and waits for its listen line.
func startDaemon(t *testing.T, bin, dir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-cache-dir", dir, "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &syncBuffer{}, exited: make(chan error, 1)}
	urlc := make(chan string, 1)
	drained := make(chan struct{}) // stderr read to EOF: Wait may close the pipe
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.Write([]byte(line + "\n")) //nolint:errcheck
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case urlc <- m[1]:
				default:
				}
			}
		}
	}()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-drained
		d.exited <- cmd.Wait()
	}()
	select {
	case d.url = <-urlc:
	case err := <-d.exited:
		t.Fatalf("daemon exited before listening: %v\n%s", err, d.stderr.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("daemon never announced its listen address\n%s", d.stderr.String())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			<-d.exited
		}
	})
	return d
}

// kill SIGKILLs the daemon and waits for the process to be gone.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exited
}

// drain SIGTERMs the daemon and requires a clean exit.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("drain exited dirty: %v\n%s", err, d.stderr.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatal("drain never finished")
	}
}

// get fetches a run status from the daemon.
func (d *daemon) get(t *testing.T, digest string) (int, serve.Status) {
	t.Helper()
	resp, err := http.Get(d.url + "/v1/runs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rs serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatalf("decoding GET %s (HTTP %d): %v", digest, resp.StatusCode, err)
	}
	return resp.StatusCode, rs
}

// metric scrapes one counter/gauge value from /metrics.
func (d *daemon) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// chaosSpec is slow enough (~seconds) that a SIGKILL reliably lands mid-run.
func chaosSpec(seed uint64) *spec.RunSpec {
	return &spec.RunSpec{
		Design: "tage-l", Topology: "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1",
		Pipeline: spec.Pipeline{GHistBits: 64},
		Workload: "dhrystone", Seed: seed, Insts: 1_500_000,
	}
}

// directStats executes sp in-process and returns its marshaled counters —
// the reference every recovered result must match byte for byte.
func directStats(t *testing.T, sp *spec.RunSpec) []byte {
	t.Helper()
	out, err := spec.Exec(sp, spec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(out.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChaosKillRecovery is the headline crash-safety test: SIGKILL the
// daemon with accepted runs in flight, restart it over the same directory,
// and require every accepted digest to complete byte-identically — with a
// retrying client bridging the outage without observing a wrong answer.
func TestChaosKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and kills subprocesses; skipped in -short")
	}
	bin := serveBinary(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)

	// Submit three slow runs; workers=2 keeps one queued.
	cl, err := client.New(client.Config{BaseURL: d.url,
		MaxAttempts: 40, BaseBackoff: 25 * time.Millisecond, Poll: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	specs := []*spec.RunSpec{chaosSpec(1), chaosSpec(2), chaosSpec(3)}
	digests := make([]string, len(specs))
	for i, sp := range specs {
		st, err := cl.Submit(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = st.Digest
	}

	// A client conversation that must survive the kill/restart below.
	type answer struct {
		res *client.Result
		err error
	}
	bridgec := make(chan answer, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
		defer cancel()
		// A fresh copy of spec 0 (same digest) so the goroutine never shares
		// a mutable RunSpec with the main test goroutine.
		res, err := cl.Run(ctx, chaosSpec(1))
		bridgec <- answer{res, err}
	}()

	// Wait until at least one run is observably executing, then SIGKILL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, rs := d.get(t, digests[0]); rs.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no run ever started")
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.kill(t)

	// Restart over the same directory AND the same address (the SIGKILL
	// freed the port), so the bridging client's retries reconnect: journal
	// replay must finish every accepted digest with no client involvement.
	d2 := startDaemon(t, bin, dir, "-addr", strings.TrimPrefix(d.url, "http://"))
	waitDeadline := time.Now().Add(180 * time.Second)
	replayGrace := time.Now().Add(15 * time.Second)
	for _, digest := range digests {
		for {
			code, rs := d2.get(t, digest)
			if rs.Status == "done" {
				var res serve.Result
				if err := json.Unmarshal(rs.Result, &res); err != nil {
					t.Fatal(err)
				}
				got, _ := json.Marshal(res.Stats)
				idx := indexOf(digests, digest)
				if want := directStats(t, specs[idx]); !bytes.Equal(got, want) {
					t.Errorf("recovered run %s diverges from direct execution:\nserve: %s\ndirect: %s",
						digest, got, want)
				}
				break
			}
			if rs.Status == "failed" {
				t.Fatalf("recovered run %s failed: %s", digest, rs.Error)
			}
			// Replay re-enqueues in a background goroutine right after start;
			// a 404 is only a lost run once that window has clearly passed.
			if code == http.StatusNotFound && time.Now().After(replayGrace) {
				t.Fatalf("accepted run %s lost by the crash (journal failed)", digest)
			}
			if time.Now().After(waitDeadline) {
				t.Fatalf("recovered run %s never finished\n%s", digest, d2.stderr.String())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if got := d2.metric(t, "cobra_journal_replayed_total"); got < 1 {
		t.Errorf("journal_replayed_total = %v after SIGKILL recovery, want >= 1", got)
	}

	// The bridging client rode out the kill and restart on the same address:
	// it must settle successfully, with the exact bytes of a direct run.
	select {
	case a := <-bridgec:
		if a.err != nil {
			t.Fatalf("bridging client failed across the restart: %v", a.err)
		}
		got, _ := json.Marshal(a.res.Stats)
		if want := directStats(t, specs[0]); !bytes.Equal(got, want) {
			t.Errorf("bridging client observed wrong bytes:\nclient: %s\ndirect: %s", got, want)
		}
	case <-time.After(180 * time.Second):
		t.Fatal("bridging client never settled")
	}
	d2.drain(t)
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// TestChaosCacheCorruption: flip bits in one stored entry and truncate
// another; the daemon quarantines both (counter + *.corrupt files), treats
// them as misses, and recomputes identical counters.
func TestChaosCacheCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and kills subprocesses; skipped in -short")
	}
	bin := serveBinary(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)
	cl, err := client.New(client.Config{BaseURL: d.url, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	specs := []*spec.RunSpec{
		{Topology: "BIM2", Workload: "fib", Seed: 11, Insts: 20_000},
		{Topology: "BIM2", Workload: "fib", Seed: 12, Insts: 20_000},
	}
	firsts := make([]*client.Result, len(specs))
	for i, sp := range specs {
		firsts[i], err = cl.Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
	}
	d.drain(t)

	// Corrupt both entries on disk: one bit-flip, one truncation.
	for i, res := range firsts {
		entry := filepath.Join(dir, strings.TrimPrefix(res.Digest, "sha256:")+".r5.json")
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			data[len(data)/2] ^= 0x01
		} else {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2 := startDaemon(t, bin, dir)
	cl2, err := client.New(client.Config{BaseURL: d2.url, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		res, err := cl2.Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(firsts[i].Stats)
		got, _ := json.Marshal(res.Stats)
		if !bytes.Equal(got, want) {
			t.Errorf("recomputed run %d diverges:\nwas: %s\nnow: %s", i, want, got)
		}
		entry := filepath.Join(dir, strings.TrimPrefix(res.Digest, "sha256:")+".r5.json")
		if _, err := os.Stat(entry + ".corrupt"); err != nil {
			t.Errorf("run %d: no quarantine file: %v", i, err)
		}
	}
	if got := d2.metric(t, "cobra_cache_corrupt_total"); got != 2 {
		t.Errorf("cache_corrupt_total = %v, want 2", got)
	}
	d2.drain(t)
}

// TestChaosDrainThenRestart: a SIGTERM drain completes queued work, closes
// the journal clean, and the next start replays exactly zero runs.
func TestChaosDrainThenRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and kills subprocesses; skipped in -short")
	}
	bin := serveBinary(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)
	cl, err := client.New(client.Config{BaseURL: d.url, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.RunSpec{Topology: "BIM2", Workload: "fib", Seed: 21, Insts: 20_000}
	if _, err := cl.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	d.drain(t)

	d2 := startDaemon(t, bin, dir)
	if got := d2.metric(t, "cobra_journal_replayed_total"); got != 0 {
		t.Errorf("journal_replayed_total = %v after clean drain, want 0", got)
	}
	// The drained run is still served from the disk cache, bytes intact.
	cl2, err := client.New(client.Config{BaseURL: d2.url, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl2.Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Stats)
	if want := directStats(t, sp); !bytes.Equal(got, want) {
		t.Errorf("post-drain cache hit diverges:\nserve: %s\ndirect: %s", got, want)
	}
	d2.drain(t)
}

// TestChaosSIGQUITFlightDump: SIGQUIT is the on-demand post-mortem lever —
// the daemon dumps the flight ring to stderr and to <cache-dir>/flight.json
// (plus all goroutine stacks) and exits 2.  The dump's tail must contain the
// records /debug/flight was serving moments before the signal.
func TestChaosSIGQUITFlightDump(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and kills subprocesses; skipped in -short")
	}
	bin := serveBinary(t)
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)

	// Run one job so the ring holds real serving records (log lines + spans).
	cl, err := client.New(client.Config{BaseURL: d.url, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec.RunSpec{Topology: "BIM2", Workload: "fib", Seed: 22, Insts: 20_000}
	if _, err := cl.Run(context.Background(), sp); err != nil {
		t.Fatal(err)
	}

	// What the live endpoint serves now is what the dump must preserve.
	resp, err := http.Get(d.url + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var live struct {
		Total   uint64 `json:"total"`
		Records []struct {
			Seq uint64 `json:"seq"`
			Msg string `json:"msg"`
		} `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&live)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if live.Total == 0 || len(live.Records) == 0 {
		t.Fatalf("/debug/flight empty before SIGQUIT: %+v", live)
	}

	if err := d.cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGQUIT")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 2 {
		t.Errorf("SIGQUIT exit code = %d, want 2\n%s", code, d.stderr.String())
	}
	stderr := d.stderr.String()
	if !strings.Contains(stderr, "[flight] SIGQUIT") {
		t.Errorf("stderr missing the flight dump header:\n%s", stderr)
	}
	if !strings.Contains(stderr, "goroutine ") {
		t.Errorf("stderr missing the goroutine stacks:\n%s", stderr)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "flight.json"))
	if err != nil {
		t.Fatalf("JSON dump not written: %v\n%s", err, stderr)
	}
	var dump struct {
		Records []struct {
			Seq uint64 `json:"seq"`
			Msg string `json:"msg"`
		} `json:"records"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight.json does not parse: %v", err)
	}
	bySeq := map[uint64]string{}
	for _, r := range dump.Records {
		bySeq[r.Seq] = r.Msg
	}
	// Every record the endpoint served must appear in the dump unchanged
	// (the ring only appends; SIGQUIT handling itself logs nothing).
	for _, r := range live.Records {
		if msg, ok := bySeq[r.Seq]; !ok || msg != r.Msg {
			t.Errorf("dump lost or rewrote record seq=%d (%q vs %q)", r.Seq, r.Msg, msg)
		}
	}
}
