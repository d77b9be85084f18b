// Adaptive rewiring: the Sec. VII-B scenario. A four-way linear join
// R(a),S(a,b),T(b,c),U(c) runs while the data characteristics flip mid-
// stream (S suddenly finds many partners in R and none in T). The
// adaptive engine re-optimizes at epoch boundaries and installs new
// probe orders two epochs later (Fig. 5); a static engine keeps the
// stale plan and drowns in intermediate results.
//
//	go run ./examples/adaptive-rewiring
package main

import (
	"fmt"
	"log"
	"time"

	"clash/internal/bench"
)

func main() {
	cfg := bench.Fig8Config{
		Rate:   1500,
		Window: 400 * time.Millisecond,
		Epoch:  100 * time.Millisecond,
		Before: time.Second,
		After:  2200 * time.Millisecond,
		Bucket: 200 * time.Millisecond,
		Fanout: 100,
	}

	fmt.Println("phase 1: every tuple finds ~1 join partner")
	fmt.Println("phase 2 (after 1s): S-tuples find 100 partners in R, none in T")
	fmt.Println("adaptive recovery expected ~0.7s after the shift (2 epochs + a window)")
	fmt.Println()

	adaptive, err := bench.Fig8('a', true, cfg)
	if err != nil {
		log.Fatal(err)
	}
	static, err := bench.Fig8('a', false, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(bench.FormatFig8(adaptive, static))
	fmt.Println()

	var staticProbes, adaptiveProbes int64
	staticFailed := false
	for _, p := range static {
		staticProbes += p.Probes
		staticFailed = staticFailed || p.Failed
	}
	for _, p := range adaptive {
		adaptiveProbes += p.Probes
	}
	fmt.Printf("probe tuples: adaptive %d vs static %d\n", adaptiveProbes, staticProbes)
	if staticFailed {
		fmt.Println("static execution died of memory overflow, as in the paper's Fig. 8a")
	}
}
