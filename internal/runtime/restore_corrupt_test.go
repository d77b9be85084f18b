package runtime

import (
	"bytes"
	"errors"
	"testing"

	"clash/internal/core"
)

// Snapshots cross a process boundary (recovery reads them back after a
// crash), so Restore decodes untrusted bytes: every malformed input
// must come back as a wrapped ErrCorruptSnapshot — never a panic, never
// a partial load, never a silent success.

func corruptHarness(t *testing.T) (*harness, []byte) {
	t.Helper()
	workload := "q1: R(a) S(a,b) T(b)"
	opts := core.Options{StoreParallelism: 2}
	est := flatEstimates([]string{"R", "S", "T"}, 100)
	src := newHarness(t, workload, opts, est, Config{})
	defer src.eng.Stop()
	src.ingestAll(t, randomStream(src.cat, 24, 4, 9))
	var snap bytes.Buffer
	if err := src.eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	dst := newHarness(t, workload, opts, est, Config{})
	return dst, snap.Bytes()
}

// TestRestoreTruncatedAtEveryOffset: cutting a valid snapshot at EVERY
// byte offset — each a state a torn write can leave the file in — is
// reported as ErrCorruptSnapshot at every single cut, and leaves the
// target engine exactly as empty as it was.
func TestRestoreTruncatedAtEveryOffset(t *testing.T) {
	dst, snap := corruptHarness(t)
	defer dst.eng.Stop()
	for cut := 0; cut < len(snap); cut++ {
		err := dst.eng.Restore(bytes.NewReader(snap[:cut]))
		if err == nil {
			t.Fatalf("snapshot truncated to %d/%d bytes restored successfully", cut, len(snap))
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("cut %d: error %v does not wrap ErrCorruptSnapshot", cut, err)
		}
		if m := dst.eng.Metrics().Snapshot(); m.Stored != 0 || m.StoreBytes != 0 {
			t.Fatalf("cut %d: failed restore left %d tuples (%d bytes) in the engine", cut, m.Stored, m.StoreBytes)
		}
	}
}

// TestRestoreCorruptTable: structured corruptions beyond simple
// truncation — a damaged frame header, trailing garbage, and a tail
// overwritten with an inflated count (which must error out instead of
// pre-allocating gigabytes).
func TestRestoreCorruptTable(t *testing.T) {
	dst, snap := corruptHarness(t)
	defer dst.eng.Stop()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"damaged magic", func(b []byte) []byte {
			b[3] ^= 0xFF
			return b
		}},
		{"trailing byte", func(b []byte) []byte {
			return append(b, 0x00)
		}},
		{"trailing frame", func(b []byte) []byte {
			return append(b, b[:16]...)
		}},
		{"inflated schema count", func(b []byte) []byte {
			// Overwrite everything past the first 12 bytes with a count
			// in the hundreds of millions and no backing bytes.
			return append(b[:12], 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mutate(append([]byte{}, snap...))
			if err := dst.eng.Restore(bytes.NewReader(in)); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("error %v does not wrap ErrCorruptSnapshot", err)
			}
		})
	}
}

// TestRestoreBitFlipsNeverPanic: a single-bit flip at every offset —
// in the frame header, the CRC, or the payload — is rejected as
// ErrCorruptSnapshot (the frame's CRC catches every single-bit error),
// never decoded into wrong state, never a panic, and never a partial
// load.
func TestRestoreBitFlipsNeverPanic(t *testing.T) {
	dst, snap := corruptHarness(t)
	defer dst.eng.Stop()
	for off := 0; off < len(snap); off++ {
		flipped := append([]byte{}, snap...)
		flipped[off] ^= 0x40
		if err := dst.eng.Restore(bytes.NewReader(flipped)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("bit flip at %d/%d: error %v does not wrap ErrCorruptSnapshot", off, len(snap), err)
		}
		if m := dst.eng.Metrics().Snapshot(); m.Stored != 0 {
			t.Fatalf("bit flip at %d: failed restore left %d tuples in the engine", off, m.Stored)
		}
	}
}
