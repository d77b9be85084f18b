// Command benchmark is the one benchmark of this repository: four named
// workloads driven through the public API, seven end-to-end metrics
// measured with tracing off (the timed ones at the speed of a nominal
// machine, see measure.go), per-layer numbers from a separate traced
// run, and a correctness gate on every run. See README.md in this
// directory for the metric glossary and how the pieces interact.
//
// The driver's form (one workload, result as the last line):
//
//	bash benchmark/run.sh --workload tpch-mqo --seed 7 --seconds 10 --trace 0
//
// By hand:
//
//	bash benchmark/run.sh                      # all four workloads, untraced
//	bash benchmark/run.sh -trace 1             # per-layer numbers and benchmark/out/trace-<workload>.json
//	bash benchmark/run.sh -repeat 2            # two sets back to back, spread against the bounds
//	bash benchmark/run.sh -repeat 2 -seeds 10  # the driver's check: ten seeds a set, quartiles and medians
//	bash benchmark/run.sh -smoke               # 1/50 of the frozen sizes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(runOpts) (*result, error)
}

var workloads = []workloadDef{
	{"tpch-mqo", tpchWhy, tpchMQO},
	{"longstate-probe", longWhy, longstateProbe},
	{"cluster-paced", clusterWhy, clusterPaced},
	{"query-churn", churnWhy, queryChurn},
}

// smokeScale is the size of a `-smoke` pass relative to the frozen sizes.
const smokeScale = 1.0 / 50

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonPath string
	repeat   int
	seeds    int
	smoke    bool
	outDir   string
	full     bool
	expected string
	write    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: tpch-mqo, longstate-probe, cluster-paced, query-churn or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of a measured window on the commit that froze the sizes; sizes scale with seconds/10")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, spans written to -out); 0: the untraced run (end-to-end metrics)")
	flag.StringVar(&o.jsonPath, "json", "", "also write one object per workload to this file")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many full sets back to back and compare them against the bounds")
	flag.IntVar(&o.seeds, "seeds", 1, "run every workload of a set on this many seeds, -seed and the ones after it")
	flag.BoolVar(&o.smoke, "smoke", false, "run at 1/50 of the frozen sizes")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for traces and scratch files")
	flag.BoolVar(&o.full, "full", false, "check every result against the reference instead of a prefix (slow)")
	flag.StringVar(&o.expected, "expected", "benchmark/expected", "directory of the checked-in digests, for -write-expected")
	flag.BoolVar(&o.write, "write-expected", false, "with -full: record the digests of this seed and size under -expected")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workloadDef{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(o options) (exit int, err error) {
	ws, err := selectWorkloads(o.workload)
	if err != nil {
		return 0, err
	}
	if o.seconds <= 0 || o.repeat < 1 || o.seeds < 1 || o.trace < 0 || o.trace > 1 {
		return 0, fmt.Errorf("-seconds must be positive, -repeat and -seeds at least 1, -trace 0 or 1")
	}
	if o.write && !o.full {
		return 0, fmt.Errorf("-write-expected records only fully checked runs: add -full")
	}
	ro := runOpts{seed: o.seed, scale: o.seconds / runSeconds, outDir: o.outDir, full: o.full}
	if o.smoke {
		ro.scale = smokeScale
	}

	// sets[rep][workload] holds one result per seed.
	var sets [][][]*result
	for rep := 0; rep < o.repeat; rep++ {
		set := make([][]*result, len(ws))
		for k := 0; k < o.seeds; k++ {
			ro.seed = o.seed + uint64(k)
			for wi, w := range ws {
				var r *result
				if o.trace == 1 {
					r, err = runTraced(w, ro)
				} else {
					r, err = w.run(ro)
				}
				if err != nil {
					return 0, fmt.Errorf("%s: %w", w.Name, err)
				}
				if o.write {
					if err := writeExpected(o.expected, r); err != nil {
						return 0, err
					}
				}
				printResult(r)
				if r.Failed > 0 {
					exit = 1
				}
				set[wi] = append(set[wi], r)
			}
		}
		sets = append(sets, set)
	}
	if o.repeat > 1 {
		if !printRepeat(sets) {
			exit = 1
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, sets); err != nil {
			return 0, err
		}
	}
	return exit, nil
}

// runTraced gives the per-layer numbers. End-to-end numbers never come
// from here: the workload runs twice at half length over the same
// inputs, first untraced and then with spans kept and MeasuredCosts on,
// and the throughput lost between the two is the tracing overhead.
func runTraced(w workloadDef, o runOpts) (*result, error) {
	o.scale /= 2
	plain, err := w.run(o)
	if err != nil {
		return nil, err
	}
	o.traced = true
	r, err := w.run(o)
	if err != nil {
		return nil, err
	}
	r.set("harness.trace_overhead_share", 1-r.tuplesPerSecond/plain.tuplesPerSecond, 0)
	r.Attempted += plain.Attempted
	r.Failed += plain.Failed
	r.Notes = append(r.Notes, plain.Notes...)
	if bad, detail := r.Digest.diff(plain.Digest, sortedKeys(plain.Digest.Counts)); bad > 0 {
		r.Failed += bad
		r.Notes = append(r.Notes, "traced and untraced runs disagree:")
		r.Notes = append(r.Notes, detail...)
	}
	return r, nil
}

// printResult prints every metric of the run by name with its unit and,
// as the last line, the object the driver reads.
func printResult(r *result) {
	mode := "untraced: end-to-end metrics"
	if r.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("== %s  seed %d  scale %.4g  (%s)\n", r.Workload, r.Seed, r.Scale, mode)
	fmt.Printf("   sizes:")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Printf(" %s=%d", k, r.Sizes[k])
	}
	fmt.Println()
	row := func(d metricDef) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Printf("   %-36s %16.6g %-6s%s\n", d.Name, v.Value, v.Unit, samples)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	fmt.Printf("   correctness: %s; attempted %d, failed %d\n", r.Checked, r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Printf("   ! %s\n", n)
	}
	if r.TracePath != "" {
		fmt.Printf("   trace: %s\n", r.TracePath)
	}

	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]out{}
	for _, d := range defs {
		metrics[d.Name] = out{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

// printRepeat compares the sets of a `-repeat` run the way the driver
// does: per workload and end-to-end metric, each set's median over its
// seeds, the distance between its quartiles as a share of that median
// (with four seeds or more), and how far the sets' medians lie apart. It
// reports whether every spread and every shift stayed within the bound.
func printRepeat(sets [][][]*result) bool {
	ok := true
	fmt.Printf("\n== repeatability: %d sets of the same code, %d seeds each\n", len(sets), len(sets[0][0]))
	fmt.Printf("   %-16s %-24s %s\n", "workload", "metric", "median of each set | quartile spread of each set | shift of the medians | bound")
	for wi, first := range sets[0] {
		name := first[0].Workload
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			var medians, spreads []string
			flag := ""
			for _, set := range sets {
				vals := make([]float64, len(set[wi]))
				for k, r := range set[wi] {
					vals[k] = r.Metrics[d.Name].Value
				}
				m := median(vals)
				lo, hi = math.Min(lo, m), math.Max(hi, m)
				medians = append(medians, fmt.Sprintf("%.6g", m))
				if len(vals) >= 4 {
					q1, q3 := quartiles(vals)
					spreads = append(spreads, fmt.Sprintf("%.4f", (q3-q1)/m))
					if (q3-q1)/m > d.Bound {
						flag, ok = "  <-- outside its bound", false
					}
				}
			}
			shift := 0.0
			if lo > 0 {
				shift = (hi - lo) / lo
			}
			if shift > d.Bound {
				flag, ok = "  <-- outside its bound", false
			}
			fmt.Printf("   %-16s %-24s %s | %s | %.4f | %.2f%s\n", name, d.Name,
				strings.Join(medians, " "), strings.Join(spreads, " "), shift, d.Bound, flag)
		}
		same := true
		for _, set := range sets[1:] {
			for k, r := range set[wi] {
				if bad, _ := r.Digest.diff(first[k].Digest, sortedKeys(first[k].Digest.Counts)); bad > 0 {
					same = false
				}
			}
		}
		fmt.Printf("   %-16s %-24s identical: %v\n", name, "result digests", same)
		if !same {
			ok = false
		}
	}
	return ok
}

// writeJSON stores every run with what is needed to read it later: the
// commit, the Go version and GOMAXPROCS.
func writeJSON(path string, sets [][][]*result) error {
	var all []*result
	for _, set := range sets {
		for _, perSeed := range set {
			all = append(all, perSeed...)
		}
	}
	b, err := json.MarshalIndent(map[string]any{
		"commit":     gitCommit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"results":    all,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
