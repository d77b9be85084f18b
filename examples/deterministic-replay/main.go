// Deterministic replay: run a workload on the simulation substrate,
// where a seeded single-threaded scheduler owns every interleaving and
// a virtual clock owns time. One seed reproduces one exact schedule —
// rerunning it gives the identical trace, step for step — different
// seeds explore different interleavings while the result multiset
// stays byte-identical, and an injected fault (a stalled store task, a
// source hiccup under flow control) is replayed from its seed forever.
//
//	go run ./examples/deterministic-replay
package main

import (
	"fmt"
	"log"
	"time"

	"clash"
	"clash/internal/sim"
)

const workload = `
q1: orders(user) clicks(user,page) pages(page)
q2: clicks(page) pages(page,site) sites(site)
`

// run executes a fixed stream on a simulated engine with the given
// schedule seed, recording the schedule trace.
func run(seed uint64) (results int, trace []clash.SimEvent) {
	eng, err := clash.Start(clash.Config{
		Workload:  workload,
		Substrate: clash.SubstrateSim,
		StepMode:  true,
		Sim: clash.SimConfig{
			Seed:    seed,
			OnEvent: func(ev clash.SimEvent) { trace = append(trace, ev) },
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	for _, q := range []string{"q1", "q2"} {
		eng.OnResult(q, func(*clash.Tuple) { results++ })
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		must(eng.Ingest("clicks", clash.Time(3*i+1), clash.Int(i%4), clash.Str("/p")))
		must(eng.Ingest("pages", clash.Time(3*i+2), clash.Str("/p"), clash.Str("s")))
		must(eng.Ingest("orders", clash.Time(3*i+3), clash.Int(i%4)))
		if i%8 == 7 {
			must(eng.Ingest("sites", clash.Time(3*i+3), clash.Str("s")))
		}
	}
	eng.Drain()
	return results, trace
}

func digest(trace []clash.SimEvent) uint64 {
	t := sim.Trace{Events: trace}
	return t.Digest()
}

func main() {
	// 1. One seed, one schedule: the rerun replays the identical trace.
	r1, t1 := run(42)
	r2, t2 := run(42)
	fmt.Printf("seed 42:  %4d results, %5d scheduling decisions, trace digest %016x\n", r1, len(t1), digest(t1))
	fmt.Printf("replay:   %4d results, %5d scheduling decisions, trace digest %016x\n", r2, len(t2), digest(t2))
	if digest(t1) != digest(t2) {
		log.Fatal("replay diverged — determinism broken")
	}

	// 2. Another seed, another schedule — same answer.
	r3, t3 := run(1337)
	fmt.Printf("seed 1337:%4d results, %5d scheduling decisions, trace digest %016x\n", r3, len(t3), digest(t3))
	if r3 != r1 {
		log.Fatal("results depend on the schedule — exactness broken")
	}
	fmt.Println("=> same results on every schedule; same schedule on every replay")

	// 3. Virtual time: fast-forward five simulated minutes in
	// microseconds of wall time — latency metrics are virtual too.
	eng, err := clash.Start(clash.Config{
		Workload: workload, Substrate: clash.SubstrateSim, Sim: clash.SimConfig{Seed: 1}, StepMode: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.OnResult("q1", func(*clash.Tuple) {})
	eng.OnResult("q2", func(*clash.Tuple) {})
	if err := eng.Ingest("clicks", 1, clash.Int(1), clash.Str("/p")); err != nil {
		log.Fatal(err)
	}
	eng.VirtualClock().Advance(5 * time.Minute)
	if err := eng.Ingest("orders", 2, clash.Int(1)); err != nil {
		log.Fatal(err)
	}
	eng.Drain()
	fmt.Printf("virtual clock after fast-forward: %v\n", time.Duration(eng.VirtualClock().Now()))
	eng.Stop()

	// 4. Fault injection through the scenario harness: a source hiccup
	// bursts held tuples into a credit-starved engine while a store
	// task stalls — found at one seed, replayed from it exactly.
	sc := sim.Scenario{
		Workload: "q1: R(a) S(a,b) T(b)",
		Window:   40,
		Stream:   sim.StreamConfig{Tuples: 300, Keys: 5, Seed: 9},
		Seed:     7,
		Credits:  4,
		StepMode: true,
		Faults: []sim.Fault{
			sim.SourceHiccup{At: 60, Hold: 80},
			sim.TaskStall{Part: -1, Every: 3, Until: 300},
		},
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.VerifySubstrateIndependent(res); err != nil {
		log.Fatal(err)
	}
	_, at, err := sc.Replay(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault scenario: %d stalled picks, %d results, replay divergence at %d (-1 = identical)\n",
		res.Trace.Stalls(), res.TotalResults(), at)
	if at >= 0 {
		log.Fatal("fault replay diverged")
	}
	fmt.Println("=> the incident is a seed, not a heisenbug")
}
