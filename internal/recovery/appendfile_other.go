//go:build !unix

package recovery

import "os"

// appendFile is one stream of a DirStorage where the platform has no
// mmap: an O_APPEND descriptor, one write per append. The file never
// runs past its data.
type appendFile struct {
	f    *os.File
	size int64
}

func openAppendFile(path string) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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

func (af *appendFile) append(b []byte, sync bool) error {
	if _, err := af.f.Write(b); err != nil {
		return err
	}
	af.size += int64(len(b))
	if sync {
		return af.f.Sync()
	}
	return nil
}

func (af *appendFile) close() error { return af.f.Close() }
