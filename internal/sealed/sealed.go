// Package sealed owns the bytes the repository must trust on the way back
// in.  For the cobra-serve result cache, the cobra-compose fleet cache and
// the compacted serve journal, Publish replaces a file atomically and Seal,
// Open and Read add and check an integrity footer, quarantining what fails.
// For the binary formats (interval files, event files, branch traces), the
// frame in frame.go adds and checks a magic and a checksum trailer.
package sealed

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// ErrCorrupt marks an entry or a frame that failed verification.
var ErrCorrupt = errors.New("corrupt data")

// The footer is "\n" + footerMagic + 64 lowercase hex digits of the
// payload's sha256 + "\n".  It is a stored format: changing it orphans every
// entry already on disk (testdata/entry_v1.sealed pins it).
const (
	footerMagic = "#cobra-entry-v1 sha256="
	footerLen   = 1 + len(footerMagic) + sha256.Size*2 + 1
)

// Seal returns payload followed by its integrity footer.
func Seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(payload)+footerLen)
	out = append(append(out, payload...), '\n')
	out = hex.AppendEncode(append(out, footerMagic...), sum[:])
	return append(out, '\n')
}

// Open verifies a sealed entry and returns its payload (a subslice of
// data).  Any failure wraps ErrCorrupt.
func Open(data []byte) ([]byte, error) {
	if len(data) < footerLen {
		return nil, fmt.Errorf("%w: entry shorter than integrity footer", ErrCorrupt)
	}
	payload, footer := data[:len(data)-footerLen], data[len(data)-footerLen:]
	if footer[0] != '\n' || footer[footerLen-1] != '\n' || !bytes.HasPrefix(footer[1:], []byte(footerMagic)) {
		return nil, fmt.Errorf("%w: missing integrity footer", ErrCorrupt)
	}
	want := footer[1+len(footerMagic) : footerLen-1]
	sum := sha256.Sum256(payload)
	if got := hex.AppendEncode(nil, sum[:]); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("%w: payload sha256 %s != footer %q", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Read returns the verified payload of the sealed entry at path.  A missing
// file returns the os error (errors.Is(err, fs.ErrNotExist)).  An entry that
// fails Open is renamed path+".corrupt", kept for a post-mortem but never
// read again, and Open's error is returned.
func Read(path string) ([]byte, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Open(data)
	if err != nil && os.Rename(path, path+".corrupt") != nil {
		// Another reader already quarantined it, or it vanished: either way
		// it must not be read again.
		os.Remove(path) //nolint:errcheck
	}
	return payload, err
}

// readFile is os.ReadFile without the runtime poller.  os.Open registers
// every descriptor with the poller (a non-blocking fcntl, an epoll
// registration and its undoing on close), which is most of what opening a
// small cache entry costs and buys nothing for a regular file; os.NewFile
// never makes a blocking descriptor pollable.
func readFile(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	f := os.NewFile(uintptr(fd), path)
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil {
		size = int(fi.Size())
	}
	return readAll(f, size)
}

// readAll reads r to EOF into a buffer sized for size bytes, with one byte
// of slack so a reader of exactly size bytes hits EOF without reallocating.
func readAll(r io.Reader, size int) ([]byte, error) {
	data := make([]byte, 0, size+1)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// Publish atomically replaces path with data: a temp file in the same
// directory is written, fsynced, closed and renamed over path, so a crash
// or a concurrent reader never sees a torn file under the real name.  On
// any error the temp file is removed and path is left as it was.
func Publish(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("sealed: publishing %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // err already reports the failure
		return fmt.Errorf("sealed: publishing %s: %w", path, err)
	}
	return nil
}
