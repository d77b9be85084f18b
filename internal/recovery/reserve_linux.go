package recovery

import (
	"errors"
	"os"
	"syscall"
)

// reserve allocates the blocks of the file's first n bytes, so that a
// full disk is an error here and not a SIGBUS on a later write through
// the mapping. File systems without fallocate keep the old risk.
func reserve(f *os.File, n int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, n)
		switch {
		case err == syscall.EINTR:
			continue
		case errors.Is(err, syscall.EOPNOTSUPP), errors.Is(err, syscall.ENOSYS):
			return nil
		}
		return err
	}
}
