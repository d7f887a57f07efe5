package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"strings"
	"sync"

	"cobra/internal/sealed"
	"cobra/internal/spec"
)

// The run journal is the server's write-ahead log: every admitted digest is
// appended (with its canonical spec) before the 202 goes out, and every
// terminal outcome is appended after the cache holds the result.  On startup
// the journal is replayed and digests that were accepted but never completed
// are re-enqueued — determinism plus content addressing mean recovery is just
// re-execution, byte-identical to the run the crash destroyed.
//
// Record format, one record per line:
//
//	cbraj1 <crc32c-8hex> <json>\n
//
// The CRC (Castagnoli) covers exactly the JSON bytes.  Appends are a single
// write(2) on an O_APPEND descriptor followed by fsync, so a crash leaves at
// worst one torn final line — which replay detects by checksum and skips with
// a structured warning.  Unknown record types from a future version are
// skipped the same way: the journal is forward-tolerant, never a crash loop.
//
// On open the journal is compacted: completed digests' records are dropped
// and only still-pending accepted records are rewritten (atomically, via
// sealed.Publish), so the log stays proportional to in-flight work.

// journalMagic versions the line format; bump it if the framing changes.
const journalMagic = "cbraj1"

// Journal record types.  Replay treats anything else as from-the-future and
// skips it.  Only journals written by older daemons hold started records
// (one per execution attempt); replay accepts them as no-ops, because an
// accepted record with no done or failed after it is what keeps a digest
// pending.
const (
	recAccepted = "accepted"
	recStarted  = "started"
	recDone     = "done"
	recFailed   = "failed"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// jrec is one journal record.
type jrec struct {
	Type   string `json:"type"`
	Digest string `json:"digest"`
	// Spec is the canonical spec JSON — present on accepted records so
	// replay can re-enqueue without any other source of truth.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Retries is how many automatic retries a terminally failed run burned.
	Retries int    `json:"retries,omitempty"`
	Error   string `json:"error,omitempty"`
}

// journal is the append handle.  A nil *journal is a valid no-op (servers
// without a cache dir run unjournaled, exactly as before).
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
	log    *slog.Logger
}

// encodeRecord renders one framed, checksummed journal line.
func encodeRecord(r jrec) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(journalMagic)+1+8+1+len(body)+1)
	line = append(line, journalMagic...)
	line = append(line, ' ')
	line = append(line, fmt.Sprintf("%08x", crc32.Checksum(body, crcTable))...)
	line = append(line, ' ')
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses one journal line, reporting why it is unusable.
func decodeRecord(line string) (jrec, error) {
	var r jrec
	rest, ok := strings.CutPrefix(line, journalMagic+" ")
	if !ok {
		return r, fmt.Errorf("bad magic")
	}
	if len(rest) < 10 || rest[8] != ' ' {
		return r, fmt.Errorf("truncated frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(rest[:8], "%08x", &want); err != nil {
		return r, fmt.Errorf("bad checksum field: %v", err)
	}
	body := rest[9:]
	if got := crc32.Checksum([]byte(body), crcTable); got != want {
		return r, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		return r, fmt.Errorf("bad record JSON: %v", err)
	}
	return r, nil
}

// pendingRun is one accepted-but-incomplete digest recovered from the
// journal, ready to re-enqueue.
type pendingRun struct {
	digest string
	spec   *spec.RunSpec
}

// readJournal scans the journal at path and returns the accepted-but-not-
// completed runs in acceptance order, plus how many records were skipped as
// unreadable.  Torn final records, checksum mismatches, duplicate done
// records, and unknown record types are all tolerated: skipped with one
// structured warning each, never fatal.
func readJournal(path string, log *slog.Logger) (pending []pendingRun, skipped int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	type state struct {
		spec json.RawMessage
		done bool
	}
	states := make(map[string]*state)
	var order []string
	warn := func(lineno int, reason string) {
		skipped++
		log.Warn("journal: skipping record",
			"path", path, "line", lineno, "reason", reason)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue // blank line or the terminator after the final record
		}
		rec, derr := decodeRecord(line)
		if derr != nil {
			reason := derr.Error()
			if i == len(lines)-1 {
				reason = "torn final record: " + reason
			}
			warn(i+1, reason)
			continue
		}
		switch rec.Type {
		case recAccepted:
			if !validDigest(rec.Digest) || len(rec.Spec) == 0 {
				warn(i+1, "accepted record without digest/spec")
				continue
			}
			if st, ok := states[rec.Digest]; ok {
				// A digest accepted again after completing (e.g. its cache
				// entry was quarantined and a client resubmitted) is pending
				// again: the newest acceptance wins.
				st.spec, st.done = rec.Spec, false
			} else {
				order = append(order, rec.Digest)
				states[rec.Digest] = &state{spec: rec.Spec}
			}
		case recStarted:
			// Written by older daemons; an accepted run that started but
			// never finished is still pending.
		case recDone, recFailed:
			if st, ok := states[rec.Digest]; ok {
				st.done = true // duplicates are harmless: done is done
			}
		default:
			warn(i+1, fmt.Sprintf("unknown record type %q (newer server version?)", rec.Type))
		}
	}
	for _, digest := range order {
		st := states[digest]
		if st.done {
			continue
		}
		sp, perr := spec.Parse(st.spec)
		if perr != nil {
			log.Warn("journal: dropping unparseable pending spec",
				"path", path, "run_digest", digest, "error", perr.Error())
			skipped++
			continue
		}
		if cerr := sp.Canonicalize(); cerr != nil {
			log.Warn("journal: dropping uncanonicalizable pending spec",
				"path", path, "run_digest", digest, "error", cerr.Error())
			skipped++
			continue
		}
		if got, derr := sp.Digest(); derr != nil || got != digest {
			log.Warn("journal: dropping pending spec whose digest moved",
				"path", path, "run_digest", digest, "recomputed", got)
			skipped++
			continue
		}
		pending = append(pending, pendingRun{digest: digest, spec: sp})
	}
	return pending, skipped, nil
}

// openJournal replays, compacts, and opens the journal at path for
// appending.  Compaction rewrites the log to hold only the still-pending
// accepted records (published atomically by sealed.Publish), so completed
// history never accumulates.
func openJournal(path string, log *slog.Logger) (*journal, []pendingRun, int, error) {
	pending, skipped, err := readJournal(path, log)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	var frames []byte
	for _, p := range pending {
		raw, err := json.Marshal(p.spec)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("journal: %w", err)
		}
		line, err := encodeRecord(jrec{Type: recAccepted, Digest: p.digest, Spec: raw})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("journal: %w", err)
		}
		frames = append(frames, line...)
	}
	if err := sealed.Publish(path, frames); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: compacting: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	return &journal{f: f, path: path, log: log}, pending, skipped, nil
}

// append durably writes one record: a single O_APPEND write (atomic for
// line-sized records) followed by fsync, so the record survives a SIGKILL
// the instant append returns.  Errors are logged, not returned: a failing
// journal must degrade the durability guarantee, never availability.
func (j *journal) append(r jrec) {
	if j == nil {
		return
	}
	line, err := encodeRecord(r)
	if err != nil {
		j.log.Error("journal: encoding record", "error", err.Error())
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	if _, err := j.f.Write(line); err != nil {
		j.log.Error("journal: appending record",
			"path", j.path, "type", r.Type, "run_digest", r.Digest, "error", err.Error())
		return
	}
	if err := j.f.Sync(); err != nil {
		j.log.Error("journal: fsync", "path", j.path, "error", err.Error())
	}
}

// close fsyncs and closes the journal — the final step of a graceful drain,
// after the last worker has appended its terminal record, so an immediate
// restart replays exactly zero digests.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.log.Error("journal: fsync on close", "path", j.path, "error", err.Error())
	}
	if err := j.f.Close(); err != nil {
		j.log.Error("journal: close", "path", j.path, "error", err.Error())
	}
}
