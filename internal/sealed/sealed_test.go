package sealed

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// v1Payload is the payload sealed into testdata/entry_v1.sealed.
const v1Payload = `{"result_version":5,"stats":{"Cycles":41614}}`

// TestSealPinsV1Format: Seal produces exactly the committed bytes of the
// #cobra-entry-v1 format, so entries already on disk keep verifying.
func TestSealPinsV1Format(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "entry_v1.sealed"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Seal([]byte(v1Payload)); !bytes.Equal(got, want) {
		t.Fatalf("sealed bytes changed:\n got %q\nwant %q", got, want)
	}
	payload, err := Open(want)
	if err != nil || string(payload) != v1Payload {
		t.Fatalf("Open(committed entry) = %q, %v", payload, err)
	}
}

func TestPublishRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "entry.json")
	for _, payload := range []string{"", "first", v1Payload} {
		if err := Publish(path, Seal([]byte(payload))); err != nil {
			t.Fatal(err)
		}
		got, err := Read(path)
		if err != nil || string(got) != payload {
			t.Fatalf("Read after publishing %q = %q, %v", payload, got, err)
		}
	}
}

// TestReadMissingIsNotCorrupt: a missing entry is a plain miss, which both
// caches test for with fs.ErrNotExist, and nothing is quarantined.
func TestReadMissingIsNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, err := Read(filepath.Join(dir, "absent.json"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing entry: err = %v, want fs.ErrNotExist only", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("directory after a miss holds %v (%v), want nothing", entries, err)
	}
}

// TestReadLargeEntry: an entry of several hundred KB, many times any
// single read, round-trips whole.
func TestReadLargeEntry(t *testing.T) {
	payload := make([]byte, 700<<10)
	for i := range payload {
		payload[i] = byte(i * 7 / 3)
	}
	path := filepath.Join(t.TempDir(), "large.out")
	if err := Publish(path, Seal(payload)); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Read of a %d-byte entry = %d bytes, %v", len(payload), len(got), err)
	}
}

// TestReadAllIgnoresSizeHint: the size a file reported is only a hint; a
// file that grew or shrank since is still read to EOF.
func TestReadAllIgnoresSizeHint(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 20000)
	for _, hint := range []int{0, 1, 4095, len(data) - 1, len(data), len(data) + 1, 2 * len(data)} {
		got, err := readAll(bytes.NewReader(data), hint)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("readAll(hint %d) = %d bytes, %v; want all %d", hint, len(got), err, len(data))
		}
	}
}

// TestReadQuarantinesCorrupt: every damaged entry is rejected with
// ErrCorrupt and moved aside as *.corrupt, so the next read is a plain miss.
func TestReadQuarantinesCorrupt(t *testing.T) {
	sealedV1 := Seal([]byte(v1Payload))
	flip := func(i int) []byte {
		b := bytes.Clone(sealedV1)
		b[i] ^= 0x01
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", sealedV1[:len(sealedV1)-10]},
		{"shorter than footer", sealedV1[:footerLen-1]},
		{"footerless", []byte(v1Payload + "\n" + v1Payload + v1Payload)},
		{"payload bit flip", flip(10)},
		{"digest bit flip", flip(len(sealedV1) - 5)},
		{"magic bit flip", flip(len(v1Payload) + 3)},
		{"trailing byte", append(bytes.Clone(sealedV1), '\n')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "entry.json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read = %v, want ErrCorrupt", err)
			}
			if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, tc.data) {
				t.Errorf("quarantine file = %q, %v; want the damaged bytes", got, err)
			}
			if _, err := Read(path); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("second Read = %v, want a plain miss", err)
			}
		})
	}
}

// TestPublishFailureLeavesNoTemp: a publish that fails, here at the rename
// onto a non-empty directory, removes its temp file and leaves the target.
func TestPublishFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "entry.json")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Publish(target, []byte("payload")); err == nil {
		t.Fatal("Publish over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "entry.json" || !entries[0].IsDir() {
		t.Errorf("directory after failed publish: %v, want only the untouched target", entries)
	}
	if err := Publish(filepath.Join(dir, "missing", "entry.json"), nil); err == nil {
		t.Error("Publish into a missing directory succeeded")
	}
}

// FuzzOpen: Open never panics, rejects only with ErrCorrupt, and accepts
// exactly the bytes Seal produces for the payload it returns.
func FuzzOpen(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("testdata", "entry_v1.sealed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add(committed[:len(committed)-1])
	f.Add(Seal(nil))
	f.Add([]byte(v1Payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
		} else if !bytes.Equal(Seal(payload), data) {
			t.Fatalf("Open accepted %q, which is not Seal(%q)", data, payload)
		}
		if got, err := Open(Seal(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Open(Seal(%q)) = %q, %v", data, got, err)
		}
	})
}
