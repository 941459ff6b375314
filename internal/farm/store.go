package farm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"repro/internal/checkpoint"
)

// Store is the content-addressed checkpoint store: entries are keyed by
// the hex SHA-256 of the serialized checkpoint.Checkpoint. Identical
// states deduplicate for free, fetches verify their content against the
// address, and a directory-backed store is shared between gmdfd processes
// — detach in one, resume in another, replay byte-identically.
type Store struct {
	dir string

	mu  sync.Mutex
	mem map[string][]byte
}

var digestRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// NewStore creates a store. dir == "" keeps entries in memory only;
// otherwise entries persist as <digest>.cp files under dir (created if
// missing) and survive the process.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("farm: store dir: %w", err)
		}
	}
	return &Store{dir: dir, mem: make(map[string][]byte)}, nil
}

// Dir returns the backing directory ("" for memory-only).
func (st *Store) Dir() string { return st.dir }

// Put serializes and stores a checkpoint, returning its content address
// and serialized size.
func (st *Store) Put(cp *checkpoint.Checkpoint) (string, int, error) {
	raw, err := cp.Marshal()
	if err != nil {
		return "", 0, err
	}
	digest := checkpoint.DigestBytes(raw)
	st.mu.Lock()
	_, have := st.mem[digest]
	if !have {
		st.mem[digest] = raw
	}
	st.mu.Unlock()
	if st.dir != "" && !have {
		// Write the entry unless the file already holds these bytes: a
		// missing or corrupted file is (re)written, so Put repairs it.
		path := filepath.Join(st.dir, digest+".cp")
		if old, err := os.ReadFile(path); err != nil || !bytes.Equal(old, raw) {
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, raw, 0o644); err != nil {
				return "", 0, fmt.Errorf("farm: store write: %w", err)
			}
			if err := os.Rename(tmp, path); err != nil {
				return "", 0, fmt.Errorf("farm: store write: %w", err)
			}
		}
	}
	return digest, len(raw), nil
}

// Get fetches a checkpoint by content address, verifying the fetched
// bytes actually hash to the address (a corrupted store entry is an
// error, never a silently wrong restore).
func (st *Store) Get(digest string) (*checkpoint.Checkpoint, error) {
	if !digestRe.MatchString(digest) {
		return nil, fmt.Errorf("farm: malformed checkpoint digest %q", digest)
	}
	st.mu.Lock()
	raw, cached := st.mem[digest]
	st.mu.Unlock()
	if !cached {
		if st.dir == "" {
			return nil, fmt.Errorf("farm: no checkpoint %s in store", digest[:12])
		}
		b, err := os.ReadFile(filepath.Join(st.dir, digest+".cp"))
		if err != nil {
			return nil, fmt.Errorf("farm: checkpoint %s: %w", digest[:12], err)
		}
		raw = b
	}
	if got := checkpoint.DigestBytes(raw); got != digest {
		return nil, fmt.Errorf("farm: checkpoint %s corrupted (content hashes to %s)", digest[:12], got[:12])
	}
	if !cached {
		// Cache only verified bytes: a corrupted file must not shadow the
		// correct entry a later Put brings.
		st.mu.Lock()
		st.mem[digest] = raw
		st.mu.Unlock()
	}
	return checkpoint.Unmarshal(raw)
}

// Len reports the number of distinct entries this process knows about
// (memory cache plus on-disk entries).
func (st *Store) Len() int {
	seen := make(map[string]struct{})
	st.mu.Lock()
	for d := range st.mem {
		seen[d] = struct{}{}
	}
	st.mu.Unlock()
	if st.dir != "" {
		if ents, err := os.ReadDir(st.dir); err == nil {
			for _, e := range ents {
				name := e.Name()
				if filepath.Ext(name) == ".cp" {
					seen[name[:len(name)-3]] = struct{}{}
				}
			}
		}
	}
	return len(seen)
}
