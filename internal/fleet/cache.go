package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/sealed"
)

// The result cache is a directory of sealed entries keyed by service
// digest.  Because the digest covers the service's canonical content AND its
// dependencies' digests (see File.Digest), a hit proves the cached output
// was produced by byte-identical inputs — skipping is substitution, not
// guessing.  Entries are sealed files (package sealed, shared with
// cobra-serve's disk cache): fsynced and renamed into place, and checked
// against their sha256 footer on every read, so a torn or bit-flipped entry
// is quarantined and recomputed, never replayed as truth.
//
// A run, sweep or experiment service caches its output as <hex>.json.  A
// bundle's output is only its dependencies' outputs joined, so it is never
// cached: its record is a <hex>.bundle marker naming the service and digest,
// and a hit re-assembles the output.  A binary that predates markers looks
// only for <hex>.json, so it can never replay a marker as an empty output;
// a <hex>.json left for a bundle by such a binary is never read.

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

// markerPath maps a bundle's digest to its marker file.
func markerPath(dir, digest string) string {
	return filepath.Join(dir, strings.TrimPrefix(digest, "sha256:")+".bundle")
}

// marker is the payload of a bundle's marker.
func marker(service, digest string) []byte {
	return []byte("service=" + service + " digest=" + digest + "\n")
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

// markerLoad reports whether a verified marker for the bundle service with
// digest exists.  Failures are misses, quarantined like entries.
func markerLoad(dir, service, digest string) bool {
	if dir == "" {
		return false
	}
	data, err := sealed.Read(markerPath(dir, digest))
	return err == nil && bytes.Equal(data, marker(service, digest))
}

// cacheStore seals an entry and publishes it atomically.
func cacheStore(dir, digest string, e cacheEntry) error {
	if dir == "" {
		return nil
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	return publish(cachePath(dir, digest), data)
}

// markerStore seals a bundle's marker and publishes it atomically.
func markerStore(dir, service, digest string) error {
	if dir == "" {
		return nil
	}
	return publish(markerPath(dir, digest), marker(service, digest))
}

// publish seals payload into path, creating the cache directory.
func publish(path string, payload []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	if err := sealed.Publish(path, sealed.Seal(payload)); err != nil {
		return fmt.Errorf("fleet: cache: %w", err)
	}
	return nil
}
