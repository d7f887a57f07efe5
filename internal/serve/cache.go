package serve

import (
	"container/list"
	"errors"
	"path/filepath"
	"regexp"
	"sync"

	"cobra/internal/sealed"
)

// digestRE is the only key shape the cache accepts.  Keys come back in from
// URLs, so anything else must be rejected before it reaches a file path.
var digestRE = regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)

// validDigest reports whether id is a well-formed spec digest.
func validDigest(id string) bool { return digestRE.MatchString(id) }

// cache is the content-addressed result store: an in-memory LRU over the
// marshaled result bytes, optionally backed by an on-disk directory that
// survives restarts.  Values are stored and returned as the exact bytes of
// the first computation, so a cache hit is byte-identical to the original
// response.  Safe for concurrent use.
//
// Disk entries are sealed files (package sealed): written atomically with a
// sha256 footer, and an entry that fails verification on read is quarantined
// (renamed *.corrupt, reported via onCorrupt) and treated as a miss — a
// flipped bit on disk is recomputed, never replayed as truth.
type cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	dir   string // "" = memory only
	// suffix versions the on-disk filenames (e.g. ".r3.json"): bumping the
	// result schema orphans old files into deliberate misses rather than
	// handing callers bytes in a shape they no longer expect.
	suffix string
	// onCorrupt, when non-nil, observes every quarantined entry (metrics +
	// structured logging live in the server, not here).
	onCorrupt func(path string, reason string)
}

type centry struct {
	key string
	val []byte
}

func newCache(max int, dir, suffix string) *cache {
	return &cache{max: max, ll: list.New(), items: make(map[string]*list.Element), dir: dir, suffix: suffix}
}

// get returns the stored bytes for key, consulting memory first and then the
// disk store (promoting a verified disk hit back into memory).  A disk entry
// that fails footer verification is quarantined and reported as a miss.
func (c *cache) get(key string) ([]byte, bool) {
	if !validDigest(key) {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*centry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, false
	}
	path := c.path(key)
	val, err := sealed.Read(path)
	if err != nil {
		if errors.Is(err, sealed.ErrCorrupt) && c.onCorrupt != nil {
			c.onCorrupt(path, err.Error())
		}
		return nil, false
	}
	c.putMem(key, val)
	return val, true
}

// put stores the bytes in memory and, when configured, on disk.  Disk write
// failures are ignored: the store is an optimization, not a ledger.
func (c *cache) put(key string, val []byte) {
	if !validDigest(key) {
		return
	}
	c.putMem(key, val)
	if c.dir == "" {
		return
	}
	sealed.Publish(c.path(key), sealed.Seal(val)) //nolint:errcheck
}

func (c *cache) putMem(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*centry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&centry{key, val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*centry).key)
	}
}

// len reports the number of in-memory entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key[len("sha256:"):]+c.suffix)
}
