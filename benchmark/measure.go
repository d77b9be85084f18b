package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

var clockBase = time.Now()

// nanos reads the harness clock: monotonic nanoseconds since start-up,
// never zero once the program runs.
func nanos() int64 { return int64(time.Since(clockBase)) + 1 }

// The machine factor. The sandbox this benchmark runs on is a small
// virtual machine on a shared host, and its speed drifts: over twenty
// minutes the same binary on the same inputs ran every workload between
// 1.0 and 1.6 times its best time, in step. A pure ALU loop and a
// pointer chase hardly notice; code that allocates and collects, as the
// system under test does on every tuple, does. So every timed end-to-end
// metric is reported at the speed of a nominal machine: the harness times
// a fixed kernel of its own — a Go map of growing slices, which leans on
// the allocator, the collector and the cache the way the engine does —
// right before and right after each stretch it measures, and divides the
// stretch's time by kernel time / calibrationNominalNS. The kernel shares
// no code with the system, so a change to the system cannot move it. The
// raw values are reported beside the adjusted ones (harness.raw_*).
const (
	// calibrationNominalNS is what one shot takes on the sandbox when its
	// host is quiet: adjusted numbers read as that machine's.
	calibrationNominalNS = 1.2e6
	shotsPerReading      = 3 // the median counts
	calibrationInserts   = 20_000
)

var calibrationSink int

// calibrationShot runs the kernel once and returns its time in ns.
func calibrationShot() int64 {
	t0 := nanos()
	m := map[uint64][]uint64{}
	s := uint64(7)
	for i := 0; i < calibrationInserts; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		k := s >> 52
		m[k] = append(m[k], s)
	}
	calibrationSink += len(m)
	return nanos() - t0
}

// calibrationShots runs the kernel n times and returns the times in ns.
func calibrationShots(n int) []float64 {
	shots := make([]float64, n)
	for i := range shots {
		shots[i] = float64(calibrationShot())
	}
	return shots
}

// machineFactor reads how slow the machine is right now: above 1 when
// the kernel takes longer than on the nominal machine.
func machineFactor() float64 {
	return median(calibrationShots(shotsPerReading)) / calibrationNominalNS
}

// mark is a reading of the process-wide meters at a tuple boundary.
type mark struct {
	tuples int
	wall   int64  // harness clock, ns
	cpu    int64  // user+sys CPU of the process, ns
	alloc  uint64 // cumulative heap bytes allocated
}

func takeMark(tuples int) mark {
	var ru syscall.Rusage
	var cpu int64
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{tuples: tuples, wall: nanos(), cpu: cpu, alloc: ms.TotalAlloc}
}

// slice is one stretch of a measured window between two readings of the
// machine factor.
type slice struct {
	from, to mark
	factor   float64 // mean of the readings before and after
}

func (s slice) tuples() float64 { return float64(s.to.tuples - s.from.tuples) }

// window is a measured stretch of a run cut into slices at tuple
// boundaries. Rates are reported as the median over slices, so one
// stall (a noisy neighbour, a GC cycle landing badly) moves a slice and
// not the metric. The kernel runs between slices, outside all of them.
type window struct {
	slices []slice
	open   mark
	factor float64 // the reading before the open slice
}

// begin takes the first reading and opens the first slice.
func (w *window) begin() {
	w.factor = machineFactor()
	w.open = takeMark(0)
}

// cut closes the open slice after tuples inputs of the window and opens
// the next one.
func (w *window) cut(tuples int) {
	to := takeMark(tuples)
	f := machineFactor()
	if to.tuples > w.open.tuples {
		w.slices = append(w.slices, slice{from: w.open, to: to, factor: (w.factor + f) / 2})
	}
	w.factor = f
	w.open = takeMark(tuples)
}

// wallSeconds is the time spent inside the slices, as the clock read it.
func (w *window) wallSeconds() float64 {
	var ns int64
	for _, s := range w.slices {
		ns += s.to.wall - s.from.wall
	}
	return float64(ns) / 1e9
}

func (w *window) perSlice(f func(s slice) float64) []float64 {
	out := make([]float64, len(w.slices))
	for i, s := range w.slices {
		out[i] = f(s)
	}
	return out
}

// tuplesPerSecond is the rate on the nominal machine.
func (w *window) tuplesPerSecond() float64 {
	return median(w.perSlice(func(s slice) float64 {
		return s.tuples() / (float64(s.to.wall-s.from.wall) / 1e9 / s.factor)
	}))
}

// rawTuplesPerSecond is the rate as the clock read it.
func (w *window) rawTuplesPerSecond() float64 {
	return median(w.perSlice(func(s slice) float64 {
		return s.tuples() / (float64(s.to.wall-s.from.wall) / 1e9)
	}))
}

// cpuSecondsPerMTuple is the CPU cost on the nominal machine.
func (w *window) cpuSecondsPerMTuple() float64 {
	return median(w.perSlice(func(s slice) float64 {
		return float64(s.to.cpu-s.from.cpu) / 1e9 / s.factor / (s.tuples() / 1e6)
	}))
}

func (w *window) allocBytesPerTuple() float64 {
	return median(w.perSlice(func(s slice) float64 {
		return float64(s.to.alloc-s.from.alloc) / s.tuples()
	}))
}

// machineFactor is the median factor over the window's slices.
func (w *window) machineFactor() float64 {
	return median(w.perSlice(func(s slice) float64 { return s.factor }))
}

// factorAt returns the factor of the slice that holds input k of the
// window.
func (w *window) factorAt(k int) float64 {
	i := sort.Search(len(w.slices), func(i int) bool { return w.slices[i].to.tuples > k })
	if i == len(w.slices) {
		i--
	}
	return w.slices[i].factor
}

// sliceEnds cuts n tuples into k slices and returns the index after
// which each slice ends.
func sliceEnds(n, k int) []int {
	if k > n {
		k = n
	}
	ends := make([]int, k)
	for i := range ends {
		ends[i] = (i + 1) * n / k
	}
	return ends
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of four values or more
// the way Python's statistics.quantiles(v, n=4) does, which the driver
// uses: the exclusive method, interpolating at (n+1)·p.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := float64(len(s)+1) * p
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// percentile reads the p-quantile (0 < p < 1) of sorted samples by the
// nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentiles are the candidates for "the tail" in rising order;
// nothing past p99 is reported, whatever the sample would support.
var tailPercentiles = []float64{0.90, 0.95, 0.99}

// highestPercentile picks the highest tail percentile that still has at
// least ten samples beyond it; with fewer than a hundred samples there
// is none and it returns 0.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}
