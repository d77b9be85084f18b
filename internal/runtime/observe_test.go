package runtime

import (
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// TestObserverBesideStream pins the Observer's contract now that it runs
// on the engine's statistics goroutine: it sees every ingested tuple
// once, in ingest order across batch hand-overs; everything ingested
// before a Drain, a Stop or a controller's epoch seal has been observed
// when that call returns; a panic in it fails the engine instead of the
// process; and Stop leaves no goroutine behind.
func TestObserverBesideStream(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)")
	if err != nil {
		t.Fatal(err)
	}
	est := flatEstimates([]string{"R", "S"}, 100)
	plan, err := core.NewOptimizer(core.Options{}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		rel string
		ts  tuple.Time
	}
	start := func(t *testing.T, observer func(string, *tuple.Tuple)) *Engine {
		t.Helper()
		eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous, Observer: observer})
		if err := eng.Install(topo, 0); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// ingest feeds n tuples alternating between R and S from timestamp
	// from on and returns them in ingest order.
	ingest := func(t *testing.T, eng *Engine, from, n int) []seen {
		t.Helper()
		var want []seen
		for i := from; i < from+n; i++ {
			rel := []string{"R", "S"}[i%2]
			if err := eng.Ingest(rel, tuple.Time(i), tuple.IntValue(int64(i%13))); err != nil {
				t.Fatal(err)
			}
			want = append(want, seen{rel, tuple.Time(i)})
		}
		return want
	}

	t.Run("order and completeness at Drain and Stop", func(t *testing.T) {
		var got []seen // written by the statistics goroutine only
		eng := start(t, func(rel string, tt *tuple.Tuple) { got = append(got, seen{rel, tt.TS}) })
		// Several hand-overs and an open batch at each flush point.
		want := ingest(t, eng, 0, 3*observeBatch+17)
		eng.Drain()
		if !slices.Equal(got, want) {
			t.Fatalf("after Drain the observer saw %d tuples, want the %d ingested in order", len(got), len(want))
		}
		want = append(want, ingest(t, eng, len(want), observeBatch+5)...)
		eng.Stop()
		if !slices.Equal(got, want) {
			t.Fatalf("after Stop the observer saw %d tuples, want the %d ingested in order", len(got), len(want))
		}
	})

	t.Run("completeness at the epoch seal", func(t *testing.T) {
		const epochLen = 1000
		col := stats.NewCollector(64, 32, 1)
		eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous, EpochLength: epochLen,
			Observer: func(rel string, tt *tuple.Tuple) { col.Observe(rel, tt) }})
		defer eng.Stop()
		ctl, err := NewController(eng, ControllerConfig{
			Optimizer: core.NewOptimizer(core.Options{}),
			Collector: col,
			Shared:    true,
			Static:    true,
		}, qs, est)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(ts tuple.Time) {
			t.Helper()
			if err := eng.Ingest("R", ts, tuple.IntValue(int64(ts%7))); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		secs := time.Duration(epochLen).Seconds()
		blend := func(count int, old float64) float64 {
			return blendAlpha*(float64(count)/secs) + (1-blendAlpha)*old
		}
		// The first Tick seals at once: one tuple observed.
		feed(0)
		rate := blend(1, 100)
		if got := ctl.Estimates().Rates["R"]; got != rate {
			t.Fatalf("first seal: rate %v, want %v (1 tuple observed)", got, rate)
		}
		// The next seal comes with the first tuple of epoch 1 and must
		// count every tuple since, that one included — more than one
		// hand-over, and not a whole number of them.
		const n = observeBatch + 43
		for ts := tuple.Time(1); ts < n; ts++ {
			feed(ts)
		}
		feed(epochLen)
		rate = blend(n, rate)
		if got := ctl.Estimates().Rates["R"]; got != rate {
			t.Fatalf("second seal: rate %v, want %v (%d tuples observed)", got, rate, n)
		}
	})

	t.Run("a panicking observer fails the engine", func(t *testing.T) {
		calls := 0
		eng := start(t, func(rel string, tt *tuple.Tuple) {
			if calls++; calls == 5 {
				panic("observer bug")
			}
		})
		ingest(t, eng, 0, 10)
		eng.Drain()
		if err := eng.Failure(); err == nil || !strings.Contains(err.Error(), "observer bug") {
			t.Fatalf("Failure() = %v, want the observer's panic", err)
		}
		if err := eng.Ingest("R", 10, tuple.IntValue(1)); err == nil {
			t.Fatal("Ingest after the observer panicked returned no error")
		}
		eng.Stop()
		if calls != 5 {
			t.Errorf("observer called %d times, want 5: observations after the panic are dropped", calls)
		}
	})

	t.Run("Stop ends the statistics goroutine", func(t *testing.T) {
		base := goruntime.NumGoroutine()
		eng := start(t, func(string, *tuple.Tuple) {})
		ingest(t, eng, 0, 2*observeBatch)
		eng.Stop()
		// Goroutines left by earlier tests may still be exiting; none
		// of this engine's may remain.
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Stop, %d before New", goruntime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
