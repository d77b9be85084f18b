package runtime

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// planSignature renders a decision — the plans, then the warming plans —
// for tests that compare decision sequences as text.
func planSignature(plans, warming []*core.Plan) string {
	var b strings.Builder
	for _, p := range plans {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	b.WriteString("--warming--\n")
	for _, p := range warming {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// reuseWorkload pins p1 and p2 for the whole run and churns c1–c3 in and
// out. c1 probes the stores p1 probes, with other predicates, so the two
// share probe-tree edges whose rules differ only in predicates and sinks.
const reuseWorkload = `
p1: R(a) S(a)
p2: S(b) T(b,c) U(c)
c1: R(b) S(b)
c2: T(c) U(c)
c3: R(a) S(a,b) T(b)`

// reuseOutcome is what one run of the reuse schedule observed.
type reuseOutcome struct {
	kept, rebuilt int // rules of a new config: kept from the previous one, compiled anew
	ins           []Ingestion
	results       map[string]map[string]int // never-churned query -> its results
}

// reusePinned are the queries the reuse schedule never churns.
var reusePinned = []string{"p1", "p2"}

// runReuseSchedule drives a churn schedule through a controller and, after
// every churn step, checks what the step's install kept: each rule equal
// to one the previous configuration ran at the same store and edge (kind,
// predicates, emissions) runs the previous rule plan, and every task keeps
// that plan's schema caches; every other rule runs a plan no earlier
// configuration had, with caches of its own. It returns the counts, the
// n tuples ingested and the never-churned queries' results. keepByEdge
// turns on the engine's wrong-reuse hook, under which the identity checks
// are skipped.
func runReuseSchedule(t *testing.T, cfg Config, keepByEdge bool, n int) reuseOutcome {
	t.Helper()
	pool, cat, err := query.ParseWorkload(reuseWorkload)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*query.Query{}
	for _, q := range pool {
		byName[q.Name] = q
	}
	const epochLen, window = 20, 60
	cfg.Catalog, cfg.DefaultWindow, cfg.EpochLength = cat, window, epochLen
	col := stats.NewCollector(64, 32, 1)
	cfg.Observer = func(rel string, tt *tuple.Tuple) { col.Observe(rel, tt) }
	eng := New(cfg)
	defer eng.Stop()
	eng.keepByEdge = keepByEdge
	initial := stats.NewEstimates(0.1)
	for _, rel := range cat.Names() {
		initial.SetRate(rel, 100)
	}
	var pinned []*query.Query
	for _, name := range reusePinned {
		pinned = append(pinned, byName[name])
	}
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2}),
		Collector: col,
		Shared:    true,
		Static:    true,
	}, pinned, initial)
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]*CollectSink{}
	for _, q := range pool {
		sinks[q.Name] = NewCollectSink()
		eng.OnResult(q.Name, sinks[q.Name].Add)
	}
	schedule := []struct {
		add    bool
		query  string
		before int // tuples ingested before the step
	}{
		{true, "c1", 40}, {true, "c2", 40}, {false, "c1", 40}, {true, "c3", 40},
		{false, "c2", 40}, {true, "c1", 40}, {false, "c3", 40}, {false, "c1", 40},
		{true, "c2", 40}, {false, "c2", 40},
	}

	r := rng.New(3)
	rels := cat.Names()
	var ins []Ingestion
	ingest := func(k int) {
		for range k {
			if len(ins) == n {
				return
			}
			rel := cat.Relation(rels[r.Intn(len(rels))])
			vals := make([]tuple.Value, len(rel.Attrs))
			for j := range vals {
				vals[j] = tuple.IntValue(r.Int64n(5))
			}
			in := Ingestion{Rel: rel.Name, TS: tuple.Time(len(ins) + 1), Vals: vals}
			ins = append(ins, in)
			if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		eng.Drain()
	}

	var out reuseOutcome
	newest := func() *epochConfig {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		return eng.configs[len(eng.configs)-1]
	}
	// seen holds every rule plan and every task cache any earlier
	// configuration had.
	seenPlans := map[*rulePlan]bool{}
	seenStates := map[*planState]bool{}
	remember := func(comp *compiledTopo) {
		for _, byEdge := range comp.rules {
			for _, plans := range byEdge {
				for _, rp := range plans {
					seenPlans[rp] = true
				}
			}
		}
		for tk := range eng.liveTasks() {
			for _, st := range tk.states {
				seenStates[st] = true
			}
		}
	}
	for _, step := range schedule {
		ingest(step.before)
		prev := newest()
		remember(prev.comp)
		states := map[*task]map[*rulePlan]*planState{}
		for tk := range eng.liveTasks() {
			states[tk] = make(map[*rulePlan]*planState, len(tk.states))
			for rp, st := range tk.states {
				states[tk][rp] = st
			}
		}
		if step.add {
			err = ctl.AddQuery(byName[step.query])
		} else {
			err = ctl.RemoveQuery(step.query)
		}
		if err != nil {
			t.Fatal(err)
		}
		// One epoch of tuples after the install, so that every task that
		// receives one switches to the new configuration.
		ingest(epochLen)
		cur := newest()
		if cur == prev || keepByEdge {
			continue
		}
		for sid, byEdge := range cur.topo.Rules {
			for edge, rules := range byEdge {
				for i := range rules {
					rp := cur.comp.rules[sid][edge][i]
					var was *rulePlan
					for j, old := range prev.topo.Rules[sid][edge] {
						if old.Kind == rules[i].Kind && reflect.DeepEqual(old.Preds, rules[i].Preds) && reflect.DeepEqual(old.Out, rules[i].Out) {
							was = prev.comp.rules[sid][edge][j]
						}
					}
					switch {
					case was != nil && rp != was:
						t.Fatalf("%s %s: unchanged rule %s@%s compiled anew", addOrRemove(step.add), step.query, sid, edge)
					case was == nil && seenPlans[rp]:
						t.Fatalf("%s %s: changed rule %s@%s runs an earlier configuration's plan", addOrRemove(step.add), step.query, sid, edge)
					case was != nil:
						out.kept++
					default:
						out.rebuilt++
					}
				}
			}
		}
		for tk, before := range states {
			for rp, st := range tk.states {
				if old, ok := before[rp]; ok && cur.comp.runs(tk.key.store, rp) && st != old {
					t.Fatalf("%s %s: task %v rebuilt the cache of a kept rule plan", addOrRemove(step.add), step.query, tk.key)
				}
				if !seenPlans[rp] && seenStates[st] {
					t.Fatalf("%s %s: task %v runs a new rule plan on an old cache", addOrRemove(step.add), step.query, tk.key)
				}
			}
		}
	}
	ingest(n)
	out.ins, out.results = ins, map[string]map[string]int{}
	for _, name := range reusePinned {
		out.results[name] = sinks[name].Results()
	}
	return out
}

func addOrRemove(add bool) string {
	if add {
		return "AddQuery"
	}
	return "RemoveQuery"
}

// TestInstallKeepsUnchangedRulePlans runs the reuse schedule on the
// synchronous substrate, on the simulation substrate in StepMode and on
// the flow substrate. An
// install must keep exactly the rule plans (and their tasks' caches) of
// rules that did not change, and the never-churned queries must answer
// exactly. The vacuity arm reuses plans by store, edge and kind alone,
// ignoring predicates and emissions: that must lose exactness. A last
// row pins the flow substrate's loss without StepMode (ROADMAP item
// 1(a)).
func TestInstallKeepsUnchangedRulePlans(t *testing.T) {
	n, seeds := 900, []uint64{1, 2, 3}
	if testing.Short() {
		n, seeds = 600, seeds[:1]
	}
	pool, cat, err := query.ParseWorkload(reuseWorkload)
	if err != nil {
		t.Fatal(err)
	}
	// Every run ingests the same tuples: the reference is computed once.
	var want map[string]map[string]int
	diverged := func(got reuseOutcome, exact []string) []string {
		if want == nil {
			want = map[string]map[string]int{}
			for _, q := range pool {
				if slices.Contains(reusePinned, q.Name) {
					want[q.Name] = ReferenceJoin(q, cat, 60, got.ins)
				}
			}
		}
		var out []string
		for _, name := range exact {
			if !reflect.DeepEqual(got.results[name], want[name]) {
				out = append(out, name)
			}
		}
		return out
	}
	type substrate struct {
		name  string
		cfg   Config
		exact []string // the never-churned queries it answers exactly
		lossy []string // the never-churned queries it must answer short, never wrong
	}
	subs := []substrate{{"synchronous", Config{Substrate: SubstrateSynchronous}, reusePinned, nil}}
	for _, s := range seeds {
		subs = append(subs, substrate{fmt.Sprintf("sim/seed=%d", s), Config{Substrate: SubstrateSim, StepMode: true, Sim: SimConfig{Seed: s}}, reusePinned, nil})
	}
	// On the flow substrate workers on other goroutines run the shared
	// rule plans: the race detector's case. Its answers are not compared:
	// without StepMode it loses results across churn installs, with or
	// without reuse (CHANGES.md).
	subs = append(subs, substrate{"flow", Config{Substrate: SubstrateFlow}, nil, nil})
	// ROADMAP item 1(a): without StepMode the flow substrate loses results
	// of the never-churned two-way query across churn installs (197 of
	// 1 152 on one run), and no test answered for them. This row pins the
	// defect as it stands — some results missing, none spurious — and the
	// change that fixes item 1(a) flips it to answer p1 exactly.
	subs = append(subs, substrate{"flow-lossy-until-item-1a", Config{Substrate: SubstrateFlow}, nil, []string{"p1"}})
	for _, sub := range subs {
		t.Run(sub.name, func(t *testing.T) {
			got := runReuseSchedule(t, sub.cfg, false, n)
			t.Logf("rules kept %d, compiled anew %d", got.kept, got.rebuilt)
			if got.kept == 0 || got.rebuilt == 0 {
				t.Errorf("kept %d rules and compiled %d anew: the schedule must exercise both", got.kept, got.rebuilt)
			}
			// How many results the flow substrate loses depends on how its
			// workers interleave (26 to 340 of 1 152 over eight runs; none
			// when the stream ends with the schedule, as it does under
			// -short): the row runs the whole stream, and reruns the
			// schedule a few times before it calls a query exact. No run
			// may answer wrong.
			for _, name := range sub.lossy {
				q := pool[slices.IndexFunc(pool, func(q *query.Query) bool { return q.Name == name })]
				missing := 0
				for run := 0; run < 5 && missing == 0; run++ {
					got := runReuseSchedule(t, sub.cfg, false, 900)
					want := ReferenceJoin(q, cat, 60, got.ins)
					spurious := 0
					for k, w := range want {
						missing += max(0, w-got.results[name][k])
					}
					for k, g := range got.results[name] {
						spurious += max(0, g-want[k])
					}
					t.Logf("%s, run %d: %d of %d results missing, %d spurious", name, run+1, missing, len(want), spurious)
					if spurious > 0 {
						t.Errorf("%s: %d spurious results", name, spurious)
					}
				}
				if missing == 0 {
					t.Errorf("%s answered exactly five times: item 1(a) is fixed, flip this row to an exact one", name)
				}
			}
			if len(sub.exact) == 0 {
				return
			}
			if d := diverged(got, sub.exact); len(d) > 0 {
				t.Errorf("never-churned queries %v diverge from ReferenceJoin", d)
			}
			if d := diverged(runReuseSchedule(t, sub.cfg, true, n), sub.exact); len(d) == 0 {
				t.Error("vacuity arm: reusing rule plans by store and edge alone still matched ReferenceJoin")
			} else {
				t.Logf("vacuity arm: %v diverge", d)
			}
		})
	}
}
