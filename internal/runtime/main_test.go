package runtime

import (
	"flag"
	"os"
	"testing"

	"clash/internal/tuple"
)

// TestMain runs the package's tests with recycled tuples poisoned, as a
// race build does: a sink or a test that reads a result after its
// callback returned reads poison and fails, without -race too. A
// benchmark run keeps the default, so it times what production runs.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		tuple.PoisonRecycled = true
	}
	os.Exit(m.Run())
}
