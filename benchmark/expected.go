package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Checked-in digests. For the seeds and sizes recorded here a run
// compares every result it produced against the stored digest, which a
// `-full -write-expected` run verified against the reference from the
// first input to the last. Any other seed computes the reference inline.
//
//go:embed expected/*.json
var expectedFS embed.FS

func expectedKey(seed uint64, scale float64) string {
	return fmt.Sprintf("seed=%d,scale=%g", seed, scale)
}

// expectedDigest returns the stored digest of the workload at this seed
// and size, if one is checked in.
func expectedDigest(workload string, seed uint64, scale float64) (digest, bool) {
	b, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return digest{}, false
	}
	var all map[string]digest
	if err := json.Unmarshal(b, &all); err != nil {
		panic(fmt.Sprintf("benchmark: expected/%s.json: %v", workload, err))
	}
	d, ok := all[expectedKey(seed, scale)]
	return d, ok
}

// checkStored compares everything the run produced with the checked-in
// digest of its seed and size. It reports false when none is stored.
func checkStored(r *result, o runOpts, queries []string) bool {
	want, ok := expectedDigest(r.Workload, o.seed, o.scale)
	if !ok {
		return false
	}
	if bad, detail := r.Digest.diff(want, queries); bad > 0 {
		r.Failed += bad
		r.Notes = append(r.Notes, detail...)
	}
	r.Checked = fmt.Sprintf("the checked-in digest of %s over all %d inputs", expectedKey(o.seed, o.scale), r.Attempted)
	return true
}

// writeExpected records the digest of a fully checked, correct run.
func writeExpected(dir string, r *result) error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: not recording the digest of a run with %d failures", r.Workload, r.Failed)
	}
	path := filepath.Join(dir, r.Workload+".json")
	all := map[string]digest{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	all[expectedKey(r.Seed, r.Scale)] = r.Digest
	if b, err = json.MarshalIndent(all, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
