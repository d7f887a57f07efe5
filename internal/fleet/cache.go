package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/sealed"
)

// The result cache is a directory of sealed JSON entries keyed by service
// digest.  Because the digest covers the service's canonical content AND its
// dependencies' digests (see File.Digest), a hit proves the cached output
// was produced by byte-identical inputs — skipping is substitution, not
// guessing.  Entries are sealed files (package sealed, shared with
// cobra-serve's disk cache): fsynced and renamed into place, and checked
// against their sha256 footer on every read, so a torn or bit-flipped entry
// is quarantined and recomputed, never replayed as truth.

// cacheEntry is one cached service result.  Entries written before interval
// digests existed decode with a nil IntervalDigests — a hit still replays
// the output, it just reports no interval provenance.
type cacheEntry struct {
	Service         string   `json:"service"`
	Digest          string   `json:"digest"`
	Output          string   `json:"output"`
	IntervalDigests []string `json:"interval_digests,omitempty"`
}

// cachePath maps a digest to its entry file.
func cachePath(dir, digest string) string {
	return filepath.Join(dir, strings.TrimPrefix(digest, "sha256:")+".json")
}

// cacheLoad returns the cached entry for digest, if a verified one exists.
// Every failure is a miss: the executor re-runs and rewrites, so corruption
// heals itself.  An entry whose seal does not verify is also quarantined as
// *.corrupt by sealed.Read.
func cacheLoad(dir, digest string) (cacheEntry, bool) {
	var e cacheEntry
	if dir == "" {
		return e, false
	}
	data, err := sealed.Read(cachePath(dir, digest))
	if err != nil {
		return e, false
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Digest != digest {
		return cacheEntry{}, false
	}
	return e, true
}

// cacheStore seals an entry and publishes it atomically.
func cacheStore(dir, digest string, e cacheEntry) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	if err := sealed.Publish(cachePath(dir, digest), sealed.Seal(data)); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	return nil
}
