package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cobra/internal/sealed"
)

// The result cache is a directory of sealed records keyed by service
// digest.  Because the digest covers the service's canonical content AND its
// dependencies' digests (see File.Digest), a hit proves the cached output
// was produced by byte-identical inputs — skipping is substitution, not
// guessing.  Records are sealed files (package sealed, shared with
// cobra-serve's disk cache): fsynced and renamed into place, and checked
// against their sha256 footer on every read, so a torn or bit-flipped record
// is quarantined and recomputed, never replayed as truth.
//
// A record is one header line followed by the raw output bytes:
//
//	service=<name> digest=<digest>[ intervals=<h1>,<h2>,...]\n<output>
//
// The seal has already verified those bytes, so a hit is a header check and
// a slice.  A name holding a space, a quote or a byte strconv.Quote escapes
// is written quoted, so the header always parses; any other name is bare.
// A hit needs the digest only: the name is there for a reader, and services
// with the same content share a digest and so one record.
//
// A run, sweep or experiment service records its output as <hex>.out.  A
// bundle's output is only its dependencies' outputs joined, so its record
// is a <hex>.bundle marker with an empty output, and a hit re-assembles the
// output.  The <hex>.json entries of older binaries are never read, and
// storing a digest's record removes its <hex>.json.

// recordPath maps a service's digest to its record file.
func recordPath(dir, digest string, bundle bool) string {
	ext := ".out"
	if bundle {
		ext = ".bundle"
	}
	return filepath.Join(dir, strings.TrimPrefix(digest, "sha256:")+ext)
}

// encodeRecord returns sr's record: its header line, then its output.
func encodeRecord(sr *ServiceResult) []byte {
	name := sr.Name
	if q := strconv.Quote(name); strings.Contains(name, " ") || q[1:len(q)-1] != name {
		name = q
	}
	head := "service=" + name + " digest=" + sr.Digest
	if len(sr.IntervalDigests) > 0 {
		head += " intervals=" + strings.Join(sr.IntervalDigests, ",")
	}
	return []byte(head + "\n" + sr.Output)
}

// decodeRecord parses a record, which is a hit iff it is well formed and
// names digest.
func decodeRecord(data []byte, digest string) (*ServiceResult, bool) {
	s, ok := strings.CutPrefix(string(data), "service=")
	if !ok {
		return nil, false
	}
	sr := &ServiceResult{}
	if strings.HasPrefix(s, `"`) {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, false
		}
		sr.Name, _ = strconv.Unquote(q) // QuotedPrefix has checked q
		s = s[len(q):]
	} else if i := strings.IndexByte(s, ' '); i >= 0 {
		sr.Name, s = s[:i], s[i:]
	}
	if s, ok = strings.CutPrefix(s, " digest="); !ok {
		return nil, false
	}
	head, out, ok := strings.Cut(s, "\n")
	head, ivls, hasIvls := strings.Cut(head, " intervals=")
	if !ok || head != digest {
		return nil, false
	}
	sr.Digest, sr.Output = digest, out
	if hasIvls {
		sr.IntervalDigests = strings.Split(ivls, ",")
	}
	return sr, true
}

// replay returns svc's result from the cache in dir, if a verified record
// names its digest.  Every failure is a miss: the executor re-runs and
// rewrites, so corruption heals itself.  A record whose seal does not verify
// is also quarantined as *.corrupt by sealed.Read.  A bundle's output is
// assembled afresh.
func replay(svc *Service, digest, dir string, getOutput func(string) (string, bool)) (*ServiceResult, bool) {
	if dir == "" {
		return nil, false
	}
	data, err := sealed.Read(recordPath(dir, digest, svc.Bundle != nil))
	if err != nil {
		return nil, false
	}
	sr, ok := decodeRecord(data, digest)
	if !ok {
		return nil, false
	}
	// The record may name another service with the same content.
	sr.Name, sr.Cached = svc.Name, true
	if svc.Bundle != nil {
		sr.Output, err = bundle(svc.Bundle, getOutput)
	}
	return sr, err == nil
}

// store seals an executed service's record and publishes it atomically in
// dir: for a bundle, a marker with an empty output.  An older binary's
// <hex>.json entry for the digest is removed, as nothing reads it again.
func store(dir string, svc *Service, sr *ServiceResult) error {
	if dir == "" {
		return nil
	}
	rec := *sr
	if svc.Bundle != nil {
		rec.Output = ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	if err := sealed.Publish(recordPath(dir, sr.Digest, svc.Bundle != nil), sealed.Seal(encodeRecord(&rec))); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	os.Remove(filepath.Join(dir, strings.TrimPrefix(sr.Digest, "sha256:")+".json")) //nolint:errcheck // usually absent
	return nil
}
