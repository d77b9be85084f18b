//go:build unix && !linux

package recovery

import "os"

// reserve is a no-op where the standard library has no fallocate: the
// file is extended sparse, and a full disk faults on the write.
func reserve(*os.File, int64) error { return nil }
