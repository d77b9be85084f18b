// Package recovery gives a CLASH engine durable crash recovery
// (DESIGN.md §11): a write-ahead log of every ingested source tuple and
// every prune/evict decision, periodic incremental checkpoints of
// materialized state anchored to WAL positions, and a Recover path that
// composes the newest usable checkpoint chain and replays the WAL
// suffix with sequence-number deduplication — exactly-once results
// across a crash when paired with CommittedSink's output commit.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Stream names within a Storage. The WAL and the checkpoint log are
// separate append-only streams so a torn tail on one never corrupts
// the other.
const (
	StreamWAL        = "wal"
	StreamCheckpoint = "checkpoint"
)

// Storage is the durability substrate behind the recovery layer: a set
// of named append-only byte streams. Appends must be atomic with
// respect to concurrent Append calls on the same Storage (the Manager
// serializes its own appends; the contract matters for torn-write
// semantics: a crash may truncate the tail of a stream but never
// reorder or interleave records).
type Storage interface {
	// Append appends b to the named stream, creating it if absent.
	Append(stream string, b []byte) error
	// Load returns the entire current content of the stream (empty,
	// nil error for an absent stream).
	Load(stream string) ([]byte, error)
	// Truncate shortens the stream to n bytes — recovery discards torn
	// tails with it, and fault injection (sim.TornWrite) abuses it to
	// model a crash mid-write.
	Truncate(stream string, n int64) error
}

// MemStorage is an in-memory Storage: the deterministic-simulation
// crash harness's substrate (a "crash" abandons the engine but keeps
// the storage, exactly like a real process losing its memory but not
// its disk).
type MemStorage struct {
	mu      sync.Mutex
	streams map[string][]byte
}

// NewMemStorage returns an empty in-memory storage.
func NewMemStorage() *MemStorage {
	return &MemStorage{streams: map[string][]byte{}}
}

func (s *MemStorage) Append(stream string, b []byte) error {
	s.mu.Lock()
	s.streams[stream] = append(s.streams[stream], b...)
	s.mu.Unlock()
	return nil
}

func (s *MemStorage) Load(stream string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(s.streams[stream]))
	copy(cp, s.streams[stream])
	return cp, nil
}

func (s *MemStorage) Truncate(stream string, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.streams[stream]
	if n < 0 || n > int64(len(cur)) {
		return fmt.Errorf("recovery: truncate %s to %d: stream has %d bytes", stream, n, len(cur))
	}
	s.streams[stream] = cur[:n:n]
	return nil
}

// Size returns the stream's current length (test and harness helper).
func (s *MemStorage) Size(stream string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.streams[stream]))
}

// DirStorage stores each stream as a file in one directory. An append
// is a memory copy into a shared mapping of the file (appendfile_unix.go;
// one write(2) per append where the platform has no mmap). Sync forces
// an fsync per append — without it a machine crash can tear the last
// record(s), which is precisely the torn tail the frame scanner recovers
// from; a process crash loses nothing, the page cache outlives it.
//
// A mapped file is extended ahead of its data, so a storage abandoned
// without Close leaves zero fill after its last record. The frame
// scanner reads fill as the end of the log, and Recover truncates it
// with the torn tail — which is why appends to a directory a crash left
// behind must wait for Recover. A directory belongs to one open
// DirStorage at a time.
type DirStorage struct {
	dir  string
	sync bool

	mu    sync.Mutex
	files map[string]*appendFile
}

// NewDirStorage opens (creating if needed) a directory-backed storage.
// syncEachAppend trades throughput for the strongest durability.
func NewDirStorage(dir string, syncEachAppend bool) (*DirStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: storage dir: %w", err)
	}
	return &DirStorage{dir: dir, sync: syncEachAppend, files: map[string]*appendFile{}}, nil
}

func (s *DirStorage) path(stream string) string {
	return filepath.Join(s.dir, stream+".log")
}

func (s *DirStorage) file(stream string) (*appendFile, error) {
	if af := s.files[stream]; af != nil {
		return af, nil
	}
	af, err := openAppendFile(s.path(stream))
	if err != nil {
		return nil, err
	}
	s.files[stream] = af
	return af, nil
}

func (s *DirStorage) Append(stream string, b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	af, err := s.file(stream)
	if err != nil {
		return err
	}
	return af.append(b, s.sync)
}

// Load returns the stream's file: after a crash, records and then fill.
// An open stream's file is cut at its logical length.
func (s *DirStorage) Load(stream string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := os.ReadFile(s.path(stream))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if af := s.files[stream]; af != nil && int64(len(b)) > af.size {
		b = b[:af.size]
	}
	return b, err
}

func (s *DirStorage) Truncate(stream string, n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close an open stream first: its mapping must not outlive the bytes
	// it covers, and the bytes past n must go, fill included.
	if af := s.files[stream]; af != nil {
		delete(s.files, stream)
		if err := af.close(); err != nil {
			return err
		}
	}
	err := os.Truncate(s.path(stream), n)
	if errors.Is(err, os.ErrNotExist) && n == 0 {
		return nil
	}
	return err
}

// Close releases the storage's mappings and file handles and cuts each
// file back to its data.
func (s *DirStorage) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, af := range s.files {
		if err := af.close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, name)
	}
	return first
}
