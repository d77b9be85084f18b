package clash

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"clash/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from this build")

// TestEstimatesGoldenFig7 streams the Fig. 7 TPC-H workload through an
// engine that seals its statistics every 100 ms of event time, and
// compares the estimates the optimizer plans from (Engine.Estimates,
// blended over every sealed epoch) with testdata/estimates_fig7.golden,
// every number printed to the last bit. Rates, selectivities and degree
// summaries are functions of the stream alone, so any change to how the
// statistics tap sketches or joins its samples that moves a plan input
// shows here. Regenerate with go test -run TestEstimatesGoldenFig7 -update
// only for a change meant to move estimates.
func TestEstimatesGoldenFig7(t *testing.T) {
	f, err := tpch.NewFixture(tpch.Fig7TenQueries(), 0.0005, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Queries:       f.Queries,
		Catalog:       f.Catalog,
		DefaultWindow: 300 * time.Millisecond,
		EpochLength:   100 * time.Millisecond,
		Synchronous:   true,
	}
	// The plan does not feed the statistics; a small counted budget keeps
	// the one solve at Start short.
	cfg.Optimizer.Solver.MaxNodes = 500
	eng, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for _, r := range f.Records {
		if err := eng.Ingest(r.Relation, r.TS, r.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	got := dumpEstimates(eng.Estimates())

	path := filepath.Join("testdata", "estimates_fig7.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// dumpEstimates renders a snapshot one entry per line in sorted order,
// floats as %.17g so equal text means equal bits.
func dumpEstimates(e *Estimates) string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	add("default_sel %.17g", e.DefaultSel)
	for k, v := range e.Rates {
		add("rate %s %.17g", k, v)
	}
	for k, v := range e.Sels {
		add("sel %s %.17g", k, v)
	}
	for k, v := range e.Windows {
		add("window %s %d", k, v)
	}
	for k, d := range e.Degrees {
		top := make([]string, len(d.Top))
		for i, h := range d.Top {
			top[i] = fmt.Sprintf("%x:%d:%d", h.Hash, h.Count, h.Err)
		}
		add("degree %s count=%d distinct=%.17g top=%s", k, d.Count, d.Distinct, strings.Join(top, ","))
	}
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n") + "\n"
}
