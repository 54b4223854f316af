// Package store is the crash-safe, content-addressed disk layer under
// the serving cache: plan payloads keyed by the same SHA-256 request
// digest the in-memory LRU uses, so a restarted daemon (or another
// replica sharing the directory) serves warm hits instead of
// recompiling. Three disciplines make it safe to kill at any instant:
//
//   - writes go to a private temp file and reach the live namespace
//     only through an atomic rename, so a reader never sees a
//     half-written entry under its final name;
//   - every entry embeds a SHA-256 checksum of its payload, verified
//     on each read, so an entry torn by a crash between write and
//     fsync (or corrupted on disk) is detected instead of served;
//   - Open scans the live entries and quarantines — never crashes on —
//     anything malformed, so one bad file cannot take down a daemon at
//     startup.
//
// Corrupt entries move to quarantine/ (kept for postmortems, invisible
// to Get), and a later Put of the same digest simply rewrites the
// entry: because compiles are deterministic, the recompiled payload is
// byte-identical to what the torn write should have been.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"surfcomm/internal/faultinject"
)

const (
	planExt   = ".plan"
	headerTag = "surfcomm-plan/1"
	// subdirectories under the store root
	plansDir      = "plans"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
)

// Store is a content-addressed plan store rooted at one directory. It
// is safe for concurrent use within a process; cross-process sharing is
// safe for readers because entries are immutable once renamed into
// place.
type Store struct {
	root string
	inj  *faultinject.Injector

	mu          sync.Mutex
	entries     map[string]struct{}
	quarantined uint64
	puts        uint64
	putErrors   uint64
	hits        uint64
	misses      uint64
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Entries is the live (readable, checksum-unknown until read) entry
	// count.
	Entries int `json:"entries"`
	// Quarantined counts entries moved aside as corrupt — at Open's
	// startup scan or when a read's checksum verification failed.
	Quarantined uint64 `json:"quarantined"`
	// Puts counts successful writes; PutErrors counts failed ones
	// (including injected faults), which the write-behind layer treats
	// as cache-population misses, never fatal.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	// Hits and Misses count Get outcomes (a quarantined-on-read entry
	// is a miss).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Open initializes a store rooted at dir (created if absent), clears
// leftover temp files, and scans the live entries: malformed names and
// entries whose checksum line is unparseable or whose payload digest
// mismatches are moved to quarantine/ and counted, never fatal. The
// injector arms the write-fault points (nil injects nothing).
func Open(dir string, inj *faultinject.Injector) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{plansDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{root: dir, inj: inj, entries: make(map[string]struct{})}

	// A temp file is an abandoned write from a previous run killed
	// mid-Put; it never reached the live namespace, so dropping it is
	// the crash-consistent choice.
	tmps, err := os.ReadDir(filepath.Join(dir, tmpDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		os.Remove(filepath.Join(dir, tmpDir, e.Name())) //nolint:errcheck // best-effort cleanup
	}

	live, err := os.ReadDir(filepath.Join(dir, plansDir))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range live {
		if e.IsDir() {
			continue
		}
		digest, ok := digestFromName(e.Name())
		if !ok {
			s.quarantineLocked(e.Name())
			continue
		}
		if _, err := s.readVerified(digest); err != nil {
			s.quarantineLocked(e.Name())
			continue
		}
		s.entries[digest] = struct{}{}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// Len returns the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Get returns the verified payload for a digest. A checksum mismatch
// quarantines the entry and reports a miss — a corrupt plan is never
// returned.
func (s *Store) Get(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		return nil, false
	}
	payload, err := s.readVerified(digest)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if !os.IsNotExist(err) {
			// Present but unreadable or corrupt: move it aside so the
			// next scan/read doesn't trip over it again.
			s.quarantineLocked(digest + planExt)
		}
		delete(s.entries, digest)
		s.misses++
		return nil, false
	}
	s.entries[digest] = struct{}{}
	s.hits++
	return payload, true
}

// Put atomically persists a payload under its digest: temp file in
// tmp/, then rename into plans/. Injected faults simulate a full disk
// (StoreWriteError: the Put fails cleanly) and a crash between rename
// and data reaching the platter (TornWrite: the entry lands truncated
// while Put still reports success — exactly what checksum verification
// exists to catch).
func (s *Store) Put(digest string, payload []byte) error {
	if !validDigest(digest) {
		return s.putErr(fmt.Errorf("store: invalid digest %q", digest))
	}
	if s.inj.Fire(faultinject.StoreWriteError) {
		return s.putErr(fmt.Errorf("%w: store write for %.12s…", faultinject.ErrInjected, digest))
	}
	data := encodeEntry(payload)
	if s.inj.Fire(faultinject.TornWrite) {
		data = data[:len(data)/2]
	}
	f, err := os.CreateTemp(filepath.Join(s.root, tmpDir), digest+"-*")
	if err != nil {
		return s.putErr(fmt.Errorf("store: %w", err))
	}
	tmpName := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	} else {
		f.Close() //nolint:errcheck,staticcheck // error path; the write error wins
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: %w", err))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: %w", err))
	}
	if err := os.Rename(tmpName, filepath.Join(s.root, plansDir, digest+planExt)); err != nil {
		os.Remove(tmpName)
		return s.putErr(fmt.Errorf("store: %w", err))
	}
	s.mu.Lock()
	s.entries[digest] = struct{}{}
	s.puts++
	s.mu.Unlock()
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.entries),
		Quarantined: s.quarantined,
		Puts:        s.puts,
		PutErrors:   s.putErrors,
		Hits:        s.hits,
		Misses:      s.misses,
	}
}

func (s *Store) putErr(err error) error {
	s.mu.Lock()
	s.putErrors++
	s.mu.Unlock()
	return err
}

// encodeEntry frames a payload with its checksum header. The encoding
// is deterministic, so identical payloads produce byte-identical
// entries — the property the crash-recovery tests pin when a recompile
// repopulates a quarantined digest.
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s %d\n", headerTag, hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
	return buf.Bytes()
}

// decodeEntry is the inverse of encodeEntry: it returns the payload
// only when the header is exactly the one encodeEntry writes for it,
// and a descriptive error for torn or corrupt entries. It never
// returns unverified bytes.
func decodeEntry(data []byte) ([]byte, error) {
	header, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, errors.New("truncated header")
	}
	fields := strings.Split(string(header), " ")
	if len(fields) != 3 || fields[0] != headerTag {
		return nil, errors.New("malformed header")
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 || strconv.Itoa(n) != fields[2] {
		return nil, errors.New("malformed header")
	}
	if len(payload) != n {
		return nil, fmt.Errorf("torn entry (%d of %d payload bytes)", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// readVerified reads and checksum-verifies one live entry. It returns
// an os.IsNotExist error for absent digests and a descriptive error for
// torn/corrupt ones; it never returns unverified bytes.
func (s *Store) readVerified(digest string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.root, plansDir, digest+planExt))
	if err != nil {
		return nil, err
	}
	payload, err := decodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", digest, err)
	}
	return payload, nil
}

// quarantineLocked moves a live file into quarantine/ (falling back to
// removal if the rename fails) and counts it — but only when this call
// is the one that actually took the file out of the live namespace.
// Concurrent readers of the same corrupt entry all fail verification
// and all land here; the losers find the source already gone and must
// not count it again (one corrupt entry is one quarantine, not one per
// in-flight reader). Callers must hold s.mu or own the store
// exclusively (Open's scan).
func (s *Store) quarantineLocked(name string) {
	src := filepath.Join(s.root, plansDir, name)
	dst := filepath.Join(s.root, quarantineDir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.root, quarantineDir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(src, dst); err != nil {
		if os.IsNotExist(err) {
			return // a concurrent reader already quarantined it
		}
		if rmErr := os.Remove(src); rmErr != nil && os.IsNotExist(rmErr) {
			return
		}
	}
	s.quarantined++
}

func digestFromName(name string) (string, bool) {
	digest, ok := strings.CutSuffix(name, planExt)
	if !ok || !validDigest(digest) {
		return "", false
	}
	return digest, true
}

// validDigest accepts exactly the lowercase-hex SHA-256 strings the
// serving layer keys plans with; anything else would let a crafted
// digest escape the plans/ directory.
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
