package serve

// Tests for the durable run journal: the line format, replay semantics
// (torn records, duplicates, unknown types), compaction, and the server-level
// recovery path — an accepted-but-incomplete digest is re-executed on startup
// with bytes identical to a direct spec.Exec.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/spec"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
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

// testLogger returns a logger whose output the test can inspect.
func testLogger() (*slog.Logger, *syncBuffer) {
	buf := &syncBuffer{}
	return slog.New(slog.NewTextHandler(buf, nil)), buf
}

// canonSpec returns a canonical spec, its digest, and its JSON.
func canonSpec(t *testing.T, seed uint64) (*spec.RunSpec, string, []byte) {
	t.Helper()
	s := smallSpec(seed)
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	digest, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, digest, raw
}

// writeWAL writes records (already-encoded lines or raw fragments) to a fresh
// journal file and returns its path.
func writeWAL(t *testing.T, lines ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	var all []byte
	for _, l := range lines {
		all = append(all, l...)
	}
	if err := os.WriteFile(path, all, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustEncode(t *testing.T, r jrec) []byte {
	t.Helper()
	line, err := encodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func TestJournalRecordRoundTrip(t *testing.T) {
	_, digest, raw := canonSpec(t, 1)
	in := jrec{Type: recAccepted, Digest: digest, Spec: raw}
	line := mustEncode(t, in)
	if !bytes.HasPrefix(line, []byte(journalMagic+" ")) || line[len(line)-1] != '\n' {
		t.Fatalf("bad framing: %q", line)
	}
	out, err := decodeRecord(strings.TrimSuffix(string(line), "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Digest != in.Digest || !bytes.Equal(out.Spec, in.Spec) {
		t.Errorf("round trip changed the record: %+v vs %+v", out, in)
	}
}

func TestJournalDecodeErrors(t *testing.T) {
	_, digest, raw := canonSpec(t, 2)
	good := string(mustEncode(t, jrec{Type: recAccepted, Digest: digest, Spec: raw}))
	good = strings.TrimSuffix(good, "\n")
	for name, line := range map[string]string{
		"bad magic":         "nope " + good[len(journalMagic)+1:],
		"truncated frame":   journalMagic + " 0abc",
		"checksum mismatch": good[:len(journalMagic)+1] + "00000000" + good[len(journalMagic)+9:],
		"bad json":          journalMagic + " 00000000 {",
	} {
		if _, err := decodeRecord(line); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestJournalReplaySemantics: completed digests (done or failed) are not
// pending; accepted-but-incomplete ones are, in acceptance order, with their
// specs revalidated.
func TestJournalReplaySemantics(t *testing.T) {
	_, dA, rawA := canonSpec(t, 3)
	_, dB, rawB := canonSpec(t, 4)
	_, dC, rawC := canonSpec(t, 5)
	path := writeWAL(t,
		mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawA}),
		mustEncode(t, jrec{Type: recStarted, Digest: dA}),
		mustEncode(t, jrec{Type: recDone, Digest: dA}),
		mustEncode(t, jrec{Type: recAccepted, Digest: dB, Spec: rawB}),
		mustEncode(t, jrec{Type: recStarted, Digest: dB}),
		mustEncode(t, jrec{Type: recAccepted, Digest: dC, Spec: rawC}),
		mustEncode(t, jrec{Type: recFailed, Digest: dC, Error: "boom"}),
	)
	log, _ := testLogger()
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d records in a clean journal", skipped)
	}
	if len(pending) != 1 || pending[0].digest != dB {
		t.Fatalf("pending = %+v, want exactly %s (started-but-unfinished)", pending, dB)
	}
	if got, _ := pending[0].spec.Digest(); got != dB {
		t.Errorf("revalidated spec digest %s != %s", got, dB)
	}
}

// TestJournalTornFinalRecord: a crash mid-append leaves a torn last line;
// replay skips it with a structured warning and keeps everything before it.
func TestJournalTornFinalRecord(t *testing.T) {
	_, dA, rawA := canonSpec(t, 6)
	full := mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawA})
	torn := full[:len(full)/2] // no trailing newline, checksum can't match
	path := writeWAL(t, full, torn)
	log, buf := testLogger()
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].digest != dA {
		t.Fatalf("pending = %+v, want the intact record %s", pending, dA)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if out := buf.String(); !strings.Contains(out, "torn final record") {
		t.Errorf("no torn-record warning logged:\n%s", out)
	}
}

// TestJournalDuplicateDone: done-after-done (replay marking an already-cached
// pending run complete again) is harmless.
func TestJournalDuplicateDone(t *testing.T) {
	_, dA, rawA := canonSpec(t, 7)
	path := writeWAL(t,
		mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawA}),
		mustEncode(t, jrec{Type: recDone, Digest: dA}),
		mustEncode(t, jrec{Type: recDone, Digest: dA}),
		mustEncode(t, jrec{Type: recDone, Digest: "sha256:" + strings.Repeat("9", 64)}),
	)
	log, _ := testLogger()
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || skipped != 0 {
		t.Errorf("pending=%d skipped=%d, want 0/0", len(pending), skipped)
	}
}

// TestJournalUnknownRecordType: records from a newer server version are
// skipped with a warning, never fatal.
func TestJournalUnknownRecordType(t *testing.T) {
	_, dA, rawA := canonSpec(t, 8)
	path := writeWAL(t,
		mustEncode(t, jrec{Type: "compacted", Digest: dA}),
		mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawA}),
	)
	log, buf := testLogger()
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || skipped != 1 {
		t.Fatalf("pending=%d skipped=%d, want 1/1", len(pending), skipped)
	}
	if out := buf.String(); !strings.Contains(out, "unknown record type") {
		t.Errorf("no unknown-type warning logged:\n%s", out)
	}
}

// TestJournalDigestMismatch: an accepted record whose spec no longer hashes
// to its recorded digest (corruption that survived the CRC, or a schema
// change) is dropped rather than executed under the wrong key.
func TestJournalDigestMismatch(t *testing.T) {
	_, dA, _ := canonSpec(t, 9)
	_, _, rawB := canonSpec(t, 10)
	path := writeWAL(t, mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawB}))
	log, buf := testLogger()
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || skipped != 1 {
		t.Fatalf("pending=%d skipped=%d, want 0/1", len(pending), skipped)
	}
	if out := buf.String(); !strings.Contains(out, "digest moved") {
		t.Errorf("no digest-mismatch warning logged:\n%s", out)
	}
}

// TestJournalCompaction: openJournal rewrites the log to pending-only, and
// the returned handle appends to the compacted file.
func TestJournalCompaction(t *testing.T) {
	_, dA, rawA := canonSpec(t, 11)
	_, dB, rawB := canonSpec(t, 12)
	path := writeWAL(t,
		mustEncode(t, jrec{Type: recAccepted, Digest: dA, Spec: rawA}),
		mustEncode(t, jrec{Type: recDone, Digest: dA}),
		mustEncode(t, jrec{Type: recAccepted, Digest: dB, Spec: rawB}),
	)
	log, _ := testLogger()
	jnl, pending, skipped, err := openJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.close()
	if len(pending) != 1 || pending[0].digest != dB || skipped != 0 {
		t.Fatalf("pending=%+v skipped=%d", pending, skipped)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("compacted journal has %d lines, want 1:\n%s", len(lines), data)
	}
	rec, err := decodeRecord(lines[0])
	if err != nil || rec.Type != recAccepted || rec.Digest != dB {
		t.Fatalf("compacted record: %+v, %v", rec, err)
	}
	// The handle appends to the compacted file.
	jnl.append(jrec{Type: recDone, Digest: dB})
	pending2, _, err := readJournal(path, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending2) != 0 {
		t.Errorf("after done append, pending = %+v, want none", pending2)
	}
}

// TestServerReplaysJournal is the in-process recovery acceptance test: a
// journal holding an accepted-but-incomplete digest (as a crash leaves it)
// makes the next server re-execute the run to completion, byte-identical in
// its counters to a direct spec.Exec of the same spec.
func TestServerReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	sp, digest, raw := canonSpec(t, 60)
	line := mustEncode(t, jrec{Type: recAccepted, Digest: digest, Spec: raw})
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), line, 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	done := waitDone(t, ts, digest)
	if done.Status != "done" {
		t.Fatalf("replayed run: %+v", done)
	}
	if got := s.Metrics().Snap().JournalReplayed; got != 1 {
		t.Errorf("journal_replayed = %d, want 1", got)
	}
	var res Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	out, err := spec.Exec(sp, spec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(out.Stats)
	got, _ := json.Marshal(res.Stats)
	if !bytes.Equal(got, want) {
		t.Errorf("replayed stats diverge from direct execution:\nreplay: %s\ndirect: %s", got, want)
	}
	if res.Digest != digest {
		t.Errorf("replayed result keyed %s, want %s", res.Digest, digest)
	}
}

// TestJournalRecordsPerRun: a run that succeeds first time journals two
// records, its accepted record before the 202 and its done record after
// the cache write; an execution attempt writes nothing of its own.
func TestJournalRecordsPerRun(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, rs := postSpec(t, ts, smallSpec(62))
	if done := waitDone(t, ts, rs.Digest); done.Status != "done" {
		t.Fatalf("run: %+v", done)
	}
	ts.Close()
	shutdownServer(t, s)
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		r, err := decodeRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if r.Digest != rs.Digest {
			t.Errorf("record for %s, want %s", r.Digest, rs.Digest)
		}
		types = append(types, r.Type)
	}
	if got := strings.Join(types, " "); got != recAccepted+" "+recDone {
		t.Errorf("journal records %q, want %q", got, recAccepted+" "+recDone)
	}
}

// TestJournalReplayAlreadyCached: a crash between the cache write and the
// done record leaves a pending digest whose result is already on disk —
// replay settles it from the cache without re-running anything.
func TestJournalReplayAlreadyCached(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, digest, raw := canonSpec(t, 61)
	_, rs := postSpec(t, ts1, smallSpec(61))
	if rs.Digest != digest {
		t.Fatalf("digest mismatch: %s vs %s", rs.Digest, digest)
	}
	first := waitDone(t, ts1, digest)
	ts1.Close()
	shutdownServer(t, s1)

	// Simulate the lost done record: hand-append a fresh accepted record.
	line := mustEncode(t, jrec{Type: recAccepted, Digest: digest, Spec: raw})
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	rs2 := waitDone(t, ts2, digest)
	if rs2.Status != "done" || !bytes.Equal(first.Result, rs2.Result) {
		t.Fatalf("settled run changed: %+v", rs2)
	}
	// Settled from cache: no job ran, nothing was re-enqueued.
	deadline := time.Now().Add(10 * time.Second)
	for s2.Metrics().Snap().JobsTotal == 0 && time.Now().Before(deadline) {
		if p, _, err := readJournal(filepath.Join(dir, "journal.wal"), slog.Default()); err == nil && len(p) == 0 {
			break // replay appended the settling done record
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := s2.Metrics().Snap()
	if snap.JobsTotal != 0 || snap.JournalReplayed != 0 {
		t.Errorf("cached pending run re-ran: jobs=%d replayed=%d", snap.JobsTotal, snap.JournalReplayed)
	}
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCacheQuarantine: a bit-flipped disk entry fails footer verification,
// is renamed aside as *.corrupt, counted, and recomputed — never served.
func TestCacheQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, rs := postSpec(t, ts1, smallSpec(80))
	first := waitDone(t, ts1, rs.Digest)
	ts1.Close()
	shutdownServer(t, s1)

	entry := filepath.Join(dir, strings.TrimPrefix(rs.Digest, "sha256:")+".r5.json")
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40 // flip one bit mid-payload
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, rs2 := postSpec(t, ts2, smallSpec(80))
	if code != 202 {
		t.Fatalf("corrupt entry served as a hit: HTTP %d %+v", code, rs2)
	}
	if got := s2.Metrics().Snap().CacheCorrupt; got != 1 {
		t.Errorf("cache_corrupt = %d, want 1", got)
	}
	if _, err := os.Stat(entry + ".corrupt"); err != nil {
		t.Errorf("no quarantine file: %v", err)
	}
	redone := waitDone(t, ts2, rs.Digest)
	if redone.Status != "done" {
		t.Fatalf("recompute failed: %+v", redone)
	}
	var a, b Result
	if err := json.Unmarshal(first.Result, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(redone.Result, &b); err != nil {
		t.Fatal(err)
	}
	wantStats, _ := json.Marshal(a.Stats)
	gotStats, _ := json.Marshal(b.Stats)
	if !bytes.Equal(wantStats, gotStats) {
		t.Errorf("recomputed stats diverge:\nwas: %s\nnow: %s", wantStats, gotStats)
	}
}

// TestCacheTruncatedEntry: a truncated entry (shorter than its footer) is
// quarantined too, not parsed.
func TestCacheTruncatedEntry(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, rs := postSpec(t, ts1, smallSpec(81))
	waitDone(t, ts1, rs.Digest)
	ts1.Close()
	shutdownServer(t, s1)

	entry := filepath.Join(dir, strings.TrimPrefix(rs.Digest, "sha256:")+".r5.json")
	if err := os.Truncate(entry, 10); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, _ := postSpec(t, ts2, smallSpec(81))
	if code != 202 {
		t.Fatalf("truncated entry served as a hit: HTTP %d", code)
	}
	if got := s2.Metrics().Snap().CacheCorrupt; got != 1 {
		t.Errorf("cache_corrupt = %d, want 1", got)
	}
	waitDone(t, ts2, rs.Digest)
}

// TestJobRetriesSurfaced: a deterministically failing run burns its retry
// budget (visible on the retry counter) before landing in the failure FIFO.
func TestJobRetriesSurfaced(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, JobTimeout: time.Millisecond,
		JobRetries: 1, RetryBackoff: time.Millisecond,
	})
	_, rs := postSpec(t, ts, slowSpec(90))
	done := waitDone(t, ts, rs.Digest)
	if done.Status != "failed" {
		t.Fatalf("run did not fail: %+v", done)
	}
	if got := s.Metrics().Snap().JobRetries; got != 1 {
		t.Errorf("job_retries = %d, want 1", got)
	}
}

func TestRetryBackoff(t *testing.T) {
	base := 100 * time.Millisecond
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{{0, 100 * time.Millisecond}, {1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond}, {3, 800 * time.Millisecond},
		{4, 800 * time.Millisecond}, {10, 800 * time.Millisecond}} {
		if got := retryBackoff(base, tc.attempt); got != tc.want {
			t.Errorf("retryBackoff(%v, %d) = %v, want %v", base, tc.attempt, got, tc.want)
		}
	}
}
