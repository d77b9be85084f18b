package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"clash/internal/cluster"
	"clash/internal/core"
	"clash/internal/query"
	"clash/internal/rng"
	"clash/internal/runtime"
	"clash/internal/stats"
	"clash/internal/topology"
	"clash/internal/tuple"
)

// buildWorkload compiles a workload the way the session helpers
// elsewhere do: flat rate estimates, shared compilation.
func buildWorkload(t *testing.T, workload string) ([]*query.Query, *query.Catalog, *topology.Config) {
	t.Helper()
	qs, cat, err := query.ParseWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.1)
	for _, r := range cat.Names() {
		est.SetRate(r, 100)
	}
	plan, err := core.NewOptimizer(core.Options{StoreParallelism: 2}).Optimize(qs, est)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.Compile([]*core.Plan{plan}, core.CompileOptions{Shared: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	return qs, cat, topo
}

// newShards spins up n synchronous engines with the topology installed.
func newShards(t *testing.T, cat *query.Catalog, topo *topology.Config, n int) []cluster.Shard {
	t.Helper()
	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		eng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
		if err := eng.Install(topo, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Stop)
		shards[i] = eng
	}
	return shards
}

// stream produces a deterministic interleaved input: every relation in
// turn, small key domain, increasing timestamps.
func stream(cat *query.Catalog, n int) []runtime.Ingestion {
	rels := cat.Names()
	out := make([]runtime.Ingestion, 0, n)
	for i := 0; i < n; i++ {
		rel := cat.Relation(rels[i%len(rels)])
		vals := make([]tuple.Value, len(rel.Attrs))
		for j := range vals {
			vals[j] = tuple.IntValue(int64((i + j*7) % 5))
		}
		out = append(out, runtime.Ingestion{Rel: rel.Name, TS: tuple.Time(i + 1), Vals: vals})
	}
	return out
}

func TestBuildPlanKeyedStar(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a) S(a)\nq2: S(a) T(a)")
	plan, err := cluster.BuildPlan(qs, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S", "T"} {
		pl := plan.Relations[rel]
		if !pl.Keyed() {
			t.Fatalf("%s not keyed", rel)
		}
		if pl.Attr.Rel != rel || pl.Attr.Name != "a" || pl.Index != 0 {
			t.Fatalf("%s placement = %+v, want attr %s.a at index 0", rel, pl, rel)
		}
	}
	if len(plan.OwnerOnly) != 0 {
		t.Fatalf("OwnerOnly = %v in a fully keyed plan", plan.OwnerOnly)
	}
}

func TestBuildPlanChainBroadcastOwner(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a) S(a,b) T(b)")
	plan, err := cluster.BuildPlan(qs, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S", "T"} {
		if plan.Relations[rel].Keyed() {
			t.Fatalf("%s keyed — no class connects all of q1's relations", rel)
		}
	}
	owner, ok := plan.OwnerOnly["q1"]
	if !ok {
		t.Fatal("fully-broadcast query has no owner")
	}
	if owner < 0 || owner >= 4 {
		t.Fatalf("owner %d out of range", owner)
	}
	again, err := cluster.BuildPlan(qs, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	if again.OwnerOnly["q1"] != owner {
		t.Fatal("owner assignment is not deterministic")
	}
}

func TestBuildPlanRoutingConflictBroadcasts(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a,b) S(a)\nq2: R(a,b) T(b)")
	plan, err := cluster.BuildPlan(qs, cat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Relations["R"].Keyed() {
		t.Fatal("R keyed despite q1 routing on R.a and q2 on R.b")
	}
	if !plan.Relations["S"].Keyed() || !plan.Relations["T"].Keyed() {
		t.Fatal("S/T should stay keyed when only R conflicts")
	}
	if len(plan.OwnerOnly) != 0 {
		t.Fatalf("OwnerOnly = %v; both queries keep a keyed relation", plan.OwnerOnly)
	}
}

// TestBuildPlanDisconnectedClassIsConservative: q2 alone would key R
// and S on class {R.a,S.a}, but q1 also contains them and none of its
// classes connects all four of its relations — so q1 forces every one
// of its relations to broadcast, q2's included. Keying R,S anyway would
// lose q1 results whose R,S sides hash elsewhere.
func TestBuildPlanDisconnectedClassIsConservative(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a) S(a,x) T(b,x) U(b)\nq2: R(a) S(a)")
	plan, err := cluster.BuildPlan(qs, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S", "T", "U"} {
		if plan.Relations[rel].Keyed() {
			t.Fatalf("%s keyed — q1's membership must force broadcast", rel)
		}
	}
	if len(plan.OwnerOnly) != 2 {
		t.Fatalf("OwnerOnly = %v, want both (now fully-broadcast) queries", plan.OwnerOnly)
	}
}

// runOracle evaluates the stream on one synchronous engine.
func runOracle(t *testing.T, cat *query.Catalog, topo *topology.Config, qs []*query.Query, ins []runtime.Ingestion) *cluster.MergeSink {
	t.Helper()
	eng := runtime.New(runtime.Config{Catalog: cat, Substrate: runtime.SubstrateSynchronous})
	t.Cleanup(eng.Stop)
	if err := eng.Install(topo, 0); err != nil {
		t.Fatal(err)
	}
	sink := cluster.NewMergeSink()
	for _, q := range qs {
		eng.OnResult(q.Name, sink.Add(q.Name))
	}
	for _, in := range ins {
		if err := eng.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	return sink
}

// TestClusterExactOnSynchronousShards: the merge contract on the exact
// synchronous substrate — three shards, byte-identical to one engine.
func TestClusterExactOnSynchronousShards(t *testing.T) {
	const workload = "q1: R(a) S(a)\nq2: S(a) T(a)"
	qs, cat, topo := buildWorkload(t, workload)
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat}, newShards(t, cat, topo, 3))
	if err != nil {
		t.Fatal(err)
	}
	sink := cluster.NewMergeSink()
	for _, q := range qs {
		cl.OnResult(q.Name, sink.Add(q.Name))
	}
	ins := stream(cat, 150)
	for _, in := range ins {
		if err := cl.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	cl.Drain()
	if err := cl.Failure(); err != nil {
		t.Fatal(err)
	}
	oracle := runOracle(t, cat, topo, qs, ins)
	for _, q := range qs {
		if sink.Count(q.Name) == 0 {
			t.Fatalf("%s: no results — test vacuous", q.Name)
		}
		if !bytes.Equal(sink.Bytes(q.Name), oracle.Bytes(q.Name)) {
			t.Fatalf("%s: cluster (%d results) diverges from oracle (%d)",
				q.Name, sink.Count(q.Name), oracle.Count(q.Name))
		}
	}
	m := cl.Metrics()
	if m.RoutedTuples != int64(len(ins)) {
		t.Errorf("RoutedTuples = %d, want %d", m.RoutedTuples, len(ins))
	}
	if m.ReplicaTuples != 0 {
		t.Errorf("ReplicaTuples = %d on a fully keyed plan", m.ReplicaTuples)
	}
	var handled int64
	for _, sm := range m.Shards {
		handled += sm.Handled
	}
	if handled != int64(len(ins)) {
		t.Errorf("shards handled %d tuples, want %d", handled, len(ins))
	}
	if m.Imbalance < 1 {
		t.Errorf("Imbalance = %v, want >= 1", m.Imbalance)
	}
}

// TestShardStateBytesIsStoreBytes pins that a shard reports its engine's
// resident state once: the engine's StoreBytes already counts the index
// overhead that IndexBytes breaks out, so adding the two counts the
// indices twice.
func TestShardStateBytesIsStoreBytes(t *testing.T) {
	qs, cat, topo := buildWorkload(t, "q1: R(a) S(a)")
	shards := newShards(t, cat, topo, 1)
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range stream(cat, 100) {
		if err := cl.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	cl.Drain()
	snap := shards[0].Snapshot()
	if snap.IndexBytes == 0 {
		t.Fatal("the shard indexes nothing — test vacuous")
	}
	if got := cl.Metrics().Shards[0].StateBytes; got != snap.StoreBytes {
		t.Errorf("shard StateBytes = %d, want the engine's StoreBytes %d (IndexBytes %d)", got, snap.StoreBytes, snap.IndexBytes)
	}
}

func TestIngestUnknownRelation(t *testing.T) {
	qs, cat, topo := buildWorkload(t, "q1: R(a) S(a)")
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat}, newShards(t, cat, topo, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ingest("Z", 1, tuple.IntValue(1)); !errors.Is(err, runtime.ErrUnknownRelation) {
		t.Fatalf("err = %v, want ErrUnknownRelation", err)
	}
}

// TestTokenBucketSheds: a burst beyond the bucket is shed at the front
// door — drops are counted, the shards never see the excess, and the
// cluster stays live for later, admissible traffic. Admission runs
// before routing, so the admitted subset is a function of event time
// alone: at 1, 2 and 4 shards the same stream sheds the same tuples
// and the merged results are byte-identical.
func TestTokenBucketSheds(t *testing.T) {
	qs, cat, topo := buildWorkload(t, "q1: R(a) S(a)")
	var first []byte
	for _, n := range []int{1, 2, 4} {
		tb := &cluster.TokenBucket{Rate: 1, Burst: 4, Policy: runtime.ShedOnOverload}
		cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Admission: tb},
			newShards(t, cat, topo, n))
		if err != nil {
			t.Fatal(err)
		}
		sink := cluster.NewMergeSink()
		cl.OnResult("q1", sink.Add("q1"))

		// 40 tuples in one event-time instant: burst admits 4, rest shed.
		for i := 0; i < 40; i++ {
			rel := "R"
			if i%2 == 1 {
				rel = "S"
			}
			if err := cl.Ingest(rel, 1, tuple.IntValue(0)); err != nil {
				t.Fatal(err)
			}
		}
		m := cl.Metrics()
		if m.AdmissionDrops != 36 {
			t.Fatalf("%d shards: AdmissionDrops = %d, want 36", n, m.AdmissionDrops)
		}
		if m.RoutedTuples != 4 {
			t.Fatalf("%d shards: RoutedTuples = %d, want 4 (the burst)", n, m.RoutedTuples)
		}

		// The cluster stays live: spaced traffic is admitted and joins.
		for i := 0; i < 20; i++ {
			rel := "R"
			if i%2 == 1 {
				rel = "S"
			}
			if err := cl.Ingest(rel, tuple.Time(10+10*i), tuple.IntValue(1)); err != nil {
				t.Fatal(err)
			}
		}
		cl.Drain()
		if err := cl.Failure(); err != nil {
			t.Fatal(err)
		}
		m = cl.Metrics()
		if m.AdmissionDrops != 36 {
			t.Errorf("%d shards: AdmissionDrops grew to %d after spaced traffic", n, m.AdmissionDrops)
		}
		if m.RoutedTuples != 24 {
			t.Errorf("%d shards: RoutedTuples = %d, want 24", n, m.RoutedTuples)
		}
		if sink.Count("q1") == 0 {
			t.Fatalf("%d shards: no results after shedding stopped — cluster not live", n)
		}
		busy := 0
		for _, sm := range m.Shards {
			if sm.Handled > 0 {
				busy++
			}
		}
		if n > 1 && busy < 2 {
			t.Fatalf("%d shards: every admitted tuple landed on one shard — scale-out vacuous", n)
		}
		got := sink.Bytes("q1")
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("%d shards: %d merged results differ from 1 shard's", n, sink.Count("q1"))
		}
	}
}

// TestTokenBucketBlockIsLossless: the BlockOnOverload flavour admits
// everything (modelling a blocked producer), counts the overdraft, and
// the run stays exact.
func TestTokenBucketBlockIsLossless(t *testing.T) {
	const workload = "q1: R(a) S(a)"
	qs, cat, topo := buildWorkload(t, workload)
	tb := &cluster.TokenBucket{Rate: 0.5, Policy: runtime.BlockOnOverload}
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Admission: tb},
		newShards(t, cat, topo, 2))
	if err != nil {
		t.Fatal(err)
	}
	sink := cluster.NewMergeSink()
	cl.OnResult("q1", sink.Add("q1"))
	ins := stream(cat, 100)
	for _, in := range ins {
		if err := cl.Ingest(in.Rel, in.TS, in.Vals...); err != nil {
			t.Fatal(err)
		}
	}
	cl.Drain()
	m := cl.Metrics()
	if m.AdmissionDrops != 0 {
		t.Fatalf("AdmissionDrops = %d under BlockOnOverload", m.AdmissionDrops)
	}
	if tb.Throttled() == 0 {
		t.Fatal("bucket never overdrew — throttle path untested")
	}
	oracle := runOracle(t, cat, topo, qs, ins)
	if !bytes.Equal(sink.Bytes("q1"), oracle.Bytes("q1")) {
		t.Fatalf("blocked run diverges from oracle (%d vs %d results)",
			sink.Count("q1"), oracle.Count("q1"))
	}
}

// TestDegreeAwareReplicatesPartners: hot hashes spread the driving
// relation over two candidates and replicate the partners' hot tuples
// to both; cold hashes route plainly.
func TestDegreeAwareReplicatesPartners(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a) S(a)\nq2: S(a) T(a)")
	plan, err := cluster.BuildPlan(qs, cat, 4)
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimates(0.1)
	hot := tuple.IntValue(0).Hash()
	for _, r := range []string{"R", "S", "T"} {
		est.SetRate(r, 100)
		est.SetDegree(r+".a", &stats.AttrDegrees{
			Count:    100000,
			Distinct: 14,
			Top:      []stats.HeavyHitter{{Hash: hot, Count: 75000}},
		})
	}
	r := cluster.NewRouter(plan, est)
	if r.Splits() == 0 {
		t.Fatal("no split hashes")
	}
	routed := make([]int64, 4)
	// S is the driving relation (the only one in both q1 and q2): its hot
	// tuples go to exactly one of the two candidates.
	drv, alt := r.Keyed("S", hot, routed)
	if alt >= 0 {
		t.Fatalf("driving relation routed to [%d %d], want one candidate", drv, alt)
	}
	// R and T are partners: their hot tuples replicate to two shards, one
	// of which must be the driving tuple's.
	for _, rel := range []string{"R", "T"} {
		d1, d2 := r.Keyed(rel, hot, routed)
		if d2 < 0 || d1 == d2 {
			t.Fatalf("%s hot tuple routed to [%d %d], want two candidates", rel, d1, d2)
		}
		if d1 != drv && d2 != drv {
			t.Fatalf("%s candidates [%d %d] miss the driving shard %d", rel, d1, d2, drv)
		}
	}
	// A cold hash routes plainly, no replication.
	cold := tuple.IntValue(3).Hash()
	if d, alt := r.Keyed("R", cold, routed); alt >= 0 || d != int(cold%4) {
		t.Fatalf("cold hash routed to [%d %d], want [%d]", d, alt, cold%4)
	}
}

// recShard is a Shard that records the timestamps of the tuples it is
// handed.
type recShard struct{ got []tuple.Time }

func (s *recShard) Ingest(_ string, ts tuple.Time, _ ...tuple.Value) error {
	s.got = append(s.got, ts)
	return nil
}
func (s *recShard) Drain()                              {}
func (s *recShard) Failure() error                      { return nil }
func (s *recShard) Snapshot() runtime.Snapshot          { return runtime.Snapshot{} }
func (s *recShard) Pressure() runtime.Pressure          { return runtime.Pressure{} }
func (s *recShard) OnResult(string, func(*tuple.Tuple)) {}

// TestRouterUniformKeysHashPlainly: estimates sealed from a near-uniform
// key stream carry degree sketches, but no key reaches a 1/N share, so
// the router derives no split and places every tuple exactly where plain
// key hashing does — no replica, no load-dependent choice. This is the
// shape of the benchmark's cluster-paced workload.
func TestRouterUniformKeysHashPlainly(t *testing.T) {
	qs, cat, _ := buildWorkload(t, "q1: R(a) S(a)\nq2: S(a) T(a)")
	rels := cat.Names()
	schemas := map[string]*tuple.Schema{}
	for _, r := range rels {
		schemas[r] = tuple.NewSchema(cat.Relation(r).QualifiedAttrs()...)
	}
	z := rng.NewZipf(rng.New(3), 10_000, 0.01)
	type input struct {
		rel string
		key tuple.Value
	}
	ins := make([]input, 20_000)
	col := stats.NewCollector(512, 256, 7)
	for i := range ins {
		ins[i] = input{rels[i%len(rels)], tuple.IntValue(int64(z.Draw()))}
		col.Observe(ins[i].rel, tuple.New(schemas[ins[i].rel], tuple.Time(i+1), ins[i].key))
	}
	var preds []query.Predicate
	for _, q := range qs {
		preds = append(preds, q.Preds...)
	}
	est := col.Seal(time.Second, preds)
	for _, r := range rels {
		if d := est.Degree(r + ".a"); d == nil || len(d.Top) == 0 {
			t.Fatalf("no degree sketch for %s.a — test vacuous", r)
		}
	}

	const n = 2
	shards := []*recShard{{}, {}}
	cl, err := cluster.New(cluster.Config{Queries: qs, Catalog: cat, Estimates: est},
		[]cluster.Shard{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	plan := cl.Plan()
	if s := cluster.NewRouter(plan, est).Splits(); s != 0 {
		t.Fatalf("near-uniform keys produced %d split hashes", s)
	}
	want := make([][]tuple.Time, n)
	for i, in := range ins {
		if !plan.Relations[in.rel].Keyed() {
			t.Fatalf("%s not keyed", in.rel)
		}
		if err := cl.Ingest(in.rel, tuple.Time(i+1), in.key); err != nil {
			t.Fatal(err)
		}
		d := in.key.Hash() % n
		want[d] = append(want[d], tuple.Time(i+1))
	}
	for d, s := range shards {
		if fmt.Sprint(s.got) != fmt.Sprint(want[d]) {
			t.Errorf("shard %d got %d tuples, plain key hash places %d there", d, len(s.got), len(want[d]))
		}
	}
	if m := cl.Metrics(); m.ReplicaTuples != 0 {
		t.Errorf("ReplicaTuples = %d without a split key", m.ReplicaTuples)
	}
}
