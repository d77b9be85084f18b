//go:build unix

package recovery

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// minMapBytes is a stream's first mapping: it holds tens of thousands of
// ingest records, and doubling from here keeps the remaps of a stream
// logarithmic in its length.
const minMapBytes = 1 << 20

// appendFile is one stream of a DirStorage, mapped read-write and
// shared: an append is a copy into the page cache, with no system call
// unless the mapping has to grow or the storage syncs. The file is
// extended ahead of its data, so between appends — and after a crash —
// it ends in zero fill past the last record; close cuts it back. A
// reader tells fill from records because no frame is empty
// (runtime.ScanFrames stops at a zero length).
type appendFile struct {
	f    *os.File
	data []byte // the mapping; its length is the file's
	size int64  // bytes appended: the stream's logical length
}

func openAppendFile(path string) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &appendFile{f: f, size: fi.Size()}, nil
}

// append copies b to the end of the stream, growing the mapping first
// when b does not fit.
func (af *appendFile) append(b []byte, sync bool) error {
	end := af.size + int64(len(b))
	if end > int64(len(af.data)) {
		if err := af.grow(end); err != nil {
			return err
		}
	}
	copy(af.data[af.size:end], b)
	af.size = end
	if sync {
		// fsync also writes back the pages dirtied through the mapping.
		return af.f.Sync()
	}
	return nil
}

// grow extends the file to at least need bytes, doubling, and maps all
// of it. The blocks are reserved before the file is mapped: a write
// through the mapping cannot report a full disk, it can only fault.
func (af *appendFile) grow(need int64) error {
	n := max(int64(minMapBytes), 2*int64(len(af.data)))
	for n < need {
		n *= 2
	}
	if n > math.MaxInt {
		return fmt.Errorf("recovery: %s: %d bytes exceed the address space", af.f.Name(), need)
	}
	if err := af.unmap(); err != nil {
		return err
	}
	if err := reserve(af.f, n); err != nil {
		return fmt.Errorf("recovery: reserving %d bytes for %s: %w", n, af.f.Name(), err)
	}
	if err := af.f.Truncate(n); err != nil {
		return fmt.Errorf("recovery: extending %s: %w", af.f.Name(), err)
	}
	data, err := syscall.Mmap(int(af.f.Fd()), 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("recovery: mapping %s: %w", af.f.Name(), err)
	}
	af.data = data
	return nil
}

func (af *appendFile) unmap() error {
	if af.data == nil {
		return nil
	}
	data := af.data
	af.data = nil
	if err := syscall.Munmap(data); err != nil {
		return fmt.Errorf("recovery: unmapping %s: %w", af.f.Name(), err)
	}
	return nil
}

// close unmaps the stream and cuts the file back to its logical length,
// so a cleanly closed stream carries no fill.
func (af *appendFile) close() error {
	err := af.unmap()
	if err == nil {
		err = af.f.Truncate(af.size)
	}
	if cerr := af.f.Close(); err == nil {
		err = cerr
	}
	return err
}
