package runtime

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
	"clash/internal/workload"
)

// A store lives as long as an installed configuration names it: the first
// Install that names it creates its record (pin and tasks), the Install
// after which none names it retires the tasks and deletes the record.

// namedStores returns every store an installed configuration names, each
// with its topology store in the newest configuration naming it.
func namedStores(eng *Engine) map[topology.StoreID]*topology.Store {
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	out := map[topology.StoreID]*topology.Store{}
	for _, ec := range eng.configs {
		for id, s := range ec.topo.Stores {
			out[id] = s
		}
	}
	return out
}

// storeSetTracker checks, after each Drain, that the engine's tasks and
// pins are exactly those of the named stores, and that a store named
// again after it was gone pins what the configuration naming it now says.
type storeSetTracker struct {
	prev                  map[topology.StoreID]*topology.Store
	gone                  map[topology.StoreID]bool
	retired, reintroduced int
}

func (tr *storeSetTracker) check(t *testing.T, eng *Engine, step string) {
	t.Helper()
	named := namedStores(eng)
	pins := eng.Pins()
	var want []taskKey
	for _, p := range pins {
		s := named[p.Store]
		if s == nil {
			t.Fatalf("%s: Pins lists store %s, which no installed configuration names", step, p.Store)
		}
		if tr.gone[p.Store] {
			if p.Part != s.Partition || p.Par != max(s.Parallelism, 1) {
				t.Fatalf("%s: re-introduced store %s pinned (%d, %s), its configuration says (%d, %s)",
					step, p.Store, p.Par, p.Part.Qualified(), s.Parallelism, s.Partition.Qualified())
			}
			tr.reintroduced++
			delete(tr.gone, p.Store)
		}
		for part := range p.Par {
			want = append(want, taskKey{store: p.Store, part: part})
		}
	}
	if len(pins) != len(named) {
		t.Fatalf("%s: Pins lists %d stores, installed configurations name %d", step, len(pins), len(named))
	}
	var got []taskKey
	for _, g := range eng.TaskGauges() {
		got = append(got, taskKey{store: g.Store, part: g.Part})
	}
	slices.SortFunc(want, func(a, b taskKey) int { return cmp.Or(cmp.Compare(a.store, b.store), cmp.Compare(a.part, b.part)) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: TaskGauges lists %d tasks, the %d named stores have %d", step, len(got), len(named), len(want))
	}
	for id := range tr.prev {
		if named[id] == nil {
			if tr.gone == nil {
				tr.gone = map[topology.StoreID]bool{}
			}
			tr.gone[id] = true
			tr.retired++
		}
	}
	tr.prev = named
}

// storeLifeRun drives a churn schedule on the query-churn shape through a
// controller: installed queries stay, the churned ones arrive and expire,
// and two of them come back, so their stores are retired and introduced
// anew. The task set is checked after every Drain. It returns the tuples
// ingested and the installed queries' results.
func storeLifeRun(t *testing.T, cfg Config, size, steps int) ([]Ingestion, map[string]map[string]int, []*query.Query, *query.Catalog, storeSetTracker) {
	t.Helper()
	const (
		nRels, keys     = 40, 300
		window, epochOf = 400, 100
	)
	env := workload.NewEnv(nRels, 100)
	pool := env.RandomQueries(28, size, 1)
	if len(pool) < 28 {
		t.Fatalf("workload generation came up short (%d queries)", len(pool))
	}
	installed, churned := pool[:24], pool[24:]
	cat := env.Catalog()
	col := stats.NewCollector(256, 128, 1)
	cfg.Catalog, cfg.DefaultWindow, cfg.EpochLength = cat, window, epochOf
	cfg.Observer = func(rel string, tt *tuple.Tuple) { col.Observe(rel, tt) }
	eng := New(cfg)
	defer eng.Stop()
	opts := core.Options{DeterministicWarmStart: true, MaxCandidatesPerGroup: 12}
	opts.Solver.MaxNodes = 2_000
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer: core.NewOptimizer(opts),
		Collector: col,
		Shared:    true,
		Static:    true,
	}, installed, env.Estimates())
	if err != nil {
		t.Fatal(err)
	}
	sinks := map[string]*CollectSink{}
	for _, q := range pool {
		sinks[q.Name] = NewCollectSink()
		eng.OnResult(q.Name, sinks[q.Name].Add)
	}
	var tr storeSetTracker
	tr.check(t, eng, "initial install")
	rels := cat.Names()
	r := rng.New(7)
	var ins []Ingestion
	ingest := func(n int) {
		for range n {
			vals := make([]tuple.Value, 3)
			for j := range vals {
				vals[j] = tuple.IntValue(int64(r.Intn(keys)))
			}
			in := Ingestion{Rel: rels[r.Intn(len(rels))], TS: tuple.Time(len(ins) + 1), Vals: vals}
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
	ingest(window)
	schedule := []struct {
		add bool
		q   int
	}{
		{true, 0}, {true, 1}, {false, 0}, {true, 2}, {false, 1}, {true, 0},
		{false, 2}, {true, 1}, {false, 0}, {true, 3}, {false, 1}, {false, 3},
	}
	for i, s := range schedule[:steps] {
		q := churned[s.q]
		if s.add {
			err = ctl.AddQuery(q)
		} else {
			err = ctl.RemoveQuery(q.Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		eng.Drain()
		tr.check(t, eng, fmt.Sprintf("step %d (%s %s)", i, addOrRemove(s.add), q.Name))
		// Epochs of tuples, so the configurations the install shadowed
		// pass the safety horizon and the next install drops them.
		ingest(3 * epochOf)
		tr.check(t, eng, fmt.Sprintf("after step %d", i))
	}
	results := map[string]map[string]int{}
	for _, q := range installed {
		results[q.Name] = sinks[q.Name].Results()
	}
	return ins, results, installed, cat, tr
}

// TestTaskSetFollowsInstalledStores runs the churn schedule on the
// synchronous substrate, on the simulation substrate in StepMode and on
// the flow substrate (two-way queries, which it answers without
// StepMode). After every Drain the engine's tasks are exactly those of
// the stores an installed configuration names, its pins exactly those
// stores, and a re-introduced store pins what its configuration says.
// The never-churned queries answer exactly on synchronous and sim.
func TestTaskSetFollowsInstalledStores(t *testing.T) {
	steps := 8 // of three-way queries
	if testing.Short() {
		steps = 6
	}
	type arm struct {
		name        string
		cfg         Config
		size, steps int
		exact       bool
	}
	arms := []arm{
		{"synchronous", Config{Substrate: SubstrateSynchronous}, 3, steps, true},
		{"sim", Config{Substrate: SubstrateSim, StepMode: true, Sim: SimConfig{Seed: 1}}, 3, steps, true},
		// Two-way queries churn fewer stores: the flow arm runs every step.
		{"flow", Config{Substrate: SubstrateFlow}, 2, 12, false},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			ins, got, installed, cat, tr := storeLifeRun(t, a.cfg, a.size, a.steps)
			t.Logf("%d stores retired, %d re-introduced", tr.retired, tr.reintroduced)
			if tr.retired == 0 || tr.reintroduced == 0 {
				t.Fatalf("%d stores retired and %d re-introduced: the schedule must do both", tr.retired, tr.reintroduced)
			}
			if !a.exact {
				return
			}
			nonEmpty := 0
			for _, q := range installed {
				want := ReferenceJoin(q, cat, 400, ins)
				if !reflect.DeepEqual(got[q.Name], want) {
					t.Errorf("%s: %d distinct results, ReferenceJoin has %d", q.Name, len(got[q.Name]), len(want))
				}
				if len(want) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatal("no installed query has results — test vacuous")
			}
		})
	}
}

// TestRetiredStoresWithdrawCredits: a task grants the flow substrate's
// pool its credits when its store is introduced and withdraws them when
// the store retires, so a settled pool holds exactly the live tasks'
// grants, however many stores came and went.
func TestRetiredStoresWithdrawCredits(t *testing.T) {
	const grant = 16
	env := workload.NewEnv(12, 100)
	pool := env.RandomQueries(6, 2, 5)
	installed, churned := pool[:2], pool[2:]
	cat := env.Catalog()
	eng := New(Config{Catalog: cat, Substrate: SubstrateFlow, Flow: FlowConfig{MailboxCredits: grant}})
	defer eng.Stop()
	ctl, err := NewController(eng, ControllerConfig{
		Optimizer: core.NewOptimizer(core.Options{StoreParallelism: 2}),
		Collector: stats.NewCollector(64, 32, 1),
		Shared:    true,
		Static:    true,
	}, installed, env.Estimates())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pool {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	ins := randomStream(cat, 2_000, 20, 3)
	next := 0
	ingest := func(n int) {
		for _, in := range ins[next : next+n] {
			if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
				t.Fatal(err)
			}
		}
		next += n
		eng.Drain()
	}
	check := func(step string) {
		t.Helper()
		gauges := eng.TaskGauges()
		named := namedStores(eng)
		for _, g := range gauges {
			if named[g.Store] == nil {
				t.Fatalf("%s: task %s/%d outlived its store", step, g.Store, g.Part)
			}
		}
		if c := eng.Pressure().Credits; c != int64(grant*len(gauges)) {
			t.Fatalf("%s: settled pool holds %d credits, want %d × %d live tasks", step, c, grant, len(gauges))
		}
	}
	check("initial install")
	retired := 0
	for round := range 2 {
		for _, q := range churned {
			if err := ctl.AddQuery(q); err != nil {
				t.Fatal(err)
			}
			ingest(100)
			check(fmt.Sprintf("round %d: AddQuery %s", round, q.Name))
			before := len(eng.TaskGauges())
			if err := ctl.RemoveQuery(q.Name); err != nil {
				t.Fatal(err)
			}
			ingest(100)
			check(fmt.Sprintf("round %d: RemoveQuery %s", round, q.Name))
			retired += before - len(eng.TaskGauges())
		}
	}
	if retired == 0 {
		t.Fatal("no task retired — test vacuous")
	}
}

// TestRetiredTierClosesSpill: a retired store's tasks close their spill
// files themselves (Stop sees installed stores only), and the engine's
// spilled bytes fall to what the live stores hold. Close still reports a
// live task's spill-close failure.
func TestRetiredTierClosesSpill(t *testing.T) {
	qs, cat, err := query.ParseWorkload("q1: R(a) S(a)\nq2: T(b) U(b)")
	if err != nil {
		t.Fatal(err)
	}
	compile := func(qs []*query.Query) *topology.Config {
		plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, flatEstimates(cat.Names(), 100))
		if err != nil {
			t.Fatal(err)
		}
		topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	both, onlyQ1 := compile(qs), compile(qs[:1])
	eng := New(Config{Catalog: cat, Substrate: SubstrateSynchronous, EpochLength: 16,
		StateBackend: BackendColumnar, StateHotBytes: 4_096, StateSpillDir: t.TempDir()})
	defer eng.Stop()
	if err := eng.Install(both, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		eng.OnResult(q.Name, func(*tuple.Tuple) {})
	}
	for _, in := range randomStream(cat, 2_000, 40, 9) {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	// Keep the tiers of q2's stores, which the next install retires.
	var retiring, live []*columnarState
	eng.mu.RLock()
	for tk := range eng.liveTasks() {
		switch {
		case onlyQ1.Stores[tk.key.store] != nil:
			live = append(live, tk.tier)
		case tk.tier.spilled.Load() > 0:
			retiring = append(retiring, tk.tier)
		}
	}
	eng.mu.RUnlock()
	if len(retiring) == 0 {
		t.Fatal("no retiring task spilled — test vacuous")
	}
	before := eng.Snapshot().SpilledBytes
	if err := eng.Install(onlyQ1, 0); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	for _, cs := range retiring {
		if !cs.store.done || cs.store.f != nil {
			t.Errorf("a retired task's spill store is still open")
		}
	}
	var liveSpilled int64
	for _, g := range eng.TaskGauges() {
		liveSpilled += g.SpilledBytes
	}
	if after := eng.Snapshot().SpilledBytes; after != liveSpilled || after >= before {
		t.Errorf("spilled bytes %d before retirement, %d after; the live stores hold %d", before, after, liveSpilled)
	}
	// A live spill file whose descriptor is gone fails to sync at Close.
	var broken bool
	for _, cs := range live {
		if cs.store.f != nil {
			cs.store.f.Close()
			broken = true
			break
		}
	}
	if !broken {
		t.Fatal("no live task spilled — cannot check Close")
	}
	if err := eng.Close(); err == nil {
		t.Error("Close reported no failure for a live task's broken spill file")
	}
}
