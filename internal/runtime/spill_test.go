package runtime

// Spill-tier unit tests (DESIGN.md §10). The properties pinned here
// are the ones the end-to-end sweeps can't isolate:
//
//   - demote → probe → promote is invisible: candidate order, segment
//     walks, and byte accounting match an all-hot columnar store fed the
//     same history, at every tiering configuration in between;
//   - a corrupt or truncated spill file surfaces as a wrapped
//     ErrCorruptSnapshot through the engine-failure hook — never a
//     panic, never silent partial results;
//   - a crash inside demotion's window (segment durable, slot not yet
//     cold) neither loses nor duplicates the epoch, and the demotion
//     can simply be retried.

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"clash/internal/core"
	"clash/internal/tuple"
)

// traceVisitor records the exact (tuple, seq) sequence a checkpoint walk
// delivers.
type traceVisitor struct{ out []string }

func (v *traceVisitor) visit(tp *tuple.Tuple, seq uint64) {
	v.out = append(v.out, fmt.Sprintf("%v@%d#%d", tp.At(0), tp.TS, seq))
}

// bareColumnar builds an engine-less columnar store: it spills to the OS
// temp dir, counts into a private Metrics, and records the first
// failure in *failed (nil: failures are dropped).
func bareColumnar(failed *error) *columnarState {
	return newColumnarState("", newMetrics(), func(err error) {
		if failed != nil && *failed == nil {
			*failed = err
		}
	})
}

// hotSlots counts the ring's hot slots; coldSlots returns the cold ones.
func hotSlots(c *columnarState) int { return len(c.ring.vals) - len(coldSlots(c)) }

func coldSlots(c *columnarState) (cold []*colSegment) {
	for _, s := range c.ring.vals {
		if s.cold {
			cold = append(cold, s)
		}
	}
	return cold
}

var pairSchema = tuple.NewSchema("R.a", "R.b", "R.τ")

// pairTuple is the test history's tuple at event time ts: keys drawn
// from a small ring so probes hit in every epoch.
func pairTuple(ts int64) *tuple.Tuple {
	return tuple.New(pairSchema, tuple.Time(ts), tuple.IntValue(ts%5), tuple.IntValue(ts), tuple.IntValue(ts))
}

// feed inserts the test history into a backend: n tuples, epoch = ts/16.
func feed(b stateBackend, n int) {
	for ts := int64(1); ts <= int64(n); ts++ {
		b.insert(pairTuple(ts), uint64(ts), ts/16)
	}
}

// tieredPair feeds the identical history to two columnar stores — col
// stays all-hot (the oracle), tr is the one the tests demote.
func tieredPair(n int) (col, tr *columnarState) {
	col, tr = bareColumnar(nil), bareColumnar(nil)
	feed(col, n)
	feed(tr, n)
	return col, tr
}

// probeAll scans every key in the ring under the one-attribute key R.a
// and returns the concatenated match trace plus the index-build delta
// the probes charged (lazily built hot indices count toward bytes()).
func probeAll(b stateBackend, cut int64) (string, int64) {
	probe := newBackendProbe("R.a")
	var out []string
	var idx int64
	for k := int64(0); k < 5; k++ {
		out = append(out, fmt.Sprintf("--key %d--", k))
		matches, _, d := probe.scan(b, cut, tuple.IntValue(k))
		idx += d
		for _, m := range matches {
			out = append(out, fmt.Sprintf("%v@%d", m.vals[0], m.ts))
		}
	}
	return strings.Join(out, "\n"), idx
}

// segmentRows returns the segment's rows as tuples, in storage order, as
// a checkpoint record carries them: encoded and decoded by the state
// codec.
func segmentRows(sg Segment) []*tuple.Tuple {
	rec, err := DecodeStateRecord(AppendStateRecord(nil, &StateRecord{Segs: []Segment{sg}}))
	if err != nil {
		panic(err)
	}
	return rec.Segs[0].Tuples
}

// forEachRow visits the epoch's rows as the checkpoint walk reads them.
func forEachRow(b stateBackend, ep int64, fn func(tp *tuple.Tuple, seq uint64)) {
	sg := b.segment(ep, nil)
	for i, tp := range segmentRows(sg) {
		fn(tp, sg.Seqs[i])
	}
}

// walkAll replays the checkpoint walk: every epoch, in order, with
// every (tuple, seq) pair.
func walkAll(b stateBackend) string {
	var v traceVisitor
	for _, ep := range b.epochs() {
		v.out = append(v.out, fmt.Sprintf("--epoch %d len %d--", ep, b.epochLen(ep)))
		forEachRow(b, ep, v.visit)
	}
	return strings.Join(v.out, "\n")
}

// TestTieredMatchesColumnarAcrossTiering demotes the store one epoch at
// a time, from all-hot down to a single hot epoch, and at each step
// byte-compares probe candidate order and checkpoint walks against the
// all-hot oracle; then promotes everything back and compares once more. Accounting deltas must telescope to bytes() at
// every step.
func TestTieredMatchesColumnarAcrossTiering(t *testing.T) {
	col, tr := tieredPair(300)
	sum, idxSum := tr.bytes(), tr.indexBytes()
	check := func(op string) {
		t.Helper()
		if got := tr.bytes(); got != sum {
			t.Fatalf("%s: bytes() = %d, accumulated %d", op, got, sum)
		}
		if got := tr.indexBytes(); got != idxSum {
			t.Fatalf("%s: indexBytes() = %d, accumulated %d", op, got, idxSum)
		}
	}
	wantWalk := walkAll(col)
	// Probe both once while all-hot so the demoted stubs get filters on
	// R.a (a stub carries filters only for keys the task has seen probed).
	cut := int64(120)
	wantProbe, _ := probeAll(col, cut)
	got, idx := probeAll(tr, cut)
	if got != wantProbe {
		t.Fatalf("all-hot probe diverges:\n got: %s\nwant: %s", got, wantProbe)
	}
	sum += idx
	idxSum += idx
	check("all-hot probe")
	tr.promotePendingNoop(t) // nothing demoted yet

	steps := 0
	for {
		d, xd, ok := tr.demoteOldest()
		if !ok {
			break
		}
		steps++
		sum += d
		idxSum += xd
		check(fmt.Sprintf("demote %d", steps))
		got, idx := probeAll(tr, cut)
		if got != wantProbe {
			t.Fatalf("after %d demotions, probe diverges from columnar:\n got: %s\nwant: %s", steps, got, wantProbe)
		}
		sum += idx
		idxSum += idx
		// Probing read cold segments through; that must not change the
		// resident accounting (pending decodes are transient until
		// promotion is applied).
		check(fmt.Sprintf("probe after demote %d", steps))
		if got := walkAll(tr); got != wantWalk {
			t.Fatalf("after %d demotions, checkpoint walk diverges", steps)
		}
	}
	if steps < 10 {
		t.Fatalf("only %d demotions on a %d-epoch history — sweep vacuous", steps, len(col.ring.eps))
	}
	if n := hotSlots(tr); n != 1 || tr.ring.vals[len(tr.ring.vals)-1].cold {
		t.Fatalf("%d hot epochs after demoting to refusal, want just the newest", n)
	}
	if tr.spilled.Load() == 0 {
		t.Fatal("nothing spilled after demotions")
	}

	// Promote everything back (probes above marked the epochs pending)
	// and verify the round trip restored an exact columnar state.
	d, xd := tr.promotePending()
	sum += d
	idxSum += xd
	check("promote")
	if got, _ := probeAll(tr, cut); got != wantProbe {
		t.Fatalf("after promotion, probe diverges:\n got: %s\nwant: %s", got, wantProbe)
	}
	if got := walkAll(tr); got != wantWalk {
		t.Fatal("after promotion, checkpoint walk diverges")
	}

	// The three places hot and cold slots meet, byte-compared against
	// the container oracle as well: a late insert into a demoted epoch,
	// a shed while hot and cold slots interleave, and a prune cut that
	// lands inside a cold epoch.
	ctr := newContainerState()
	feed(ctr, 300)
	oracles := []stateBackend{col, ctr}
	sameAsOracles := func(op string) {
		t.Helper()
		check(op)
		// Probes read cold slots through without promoting them: the
		// slots stay cold, and so does the accounting.
		gotProbe, idx := probeAll(tr, noCut)
		sum += idx
		idxSum += idx
		check(op + ", probed")
		for _, o := range oracles {
			if want, _ := probeAll(o, noCut); gotProbe != want {
				t.Fatalf("%s: probe diverges from %T:\n got: %s\nwant: %s", op, o, gotProbe, want)
			}
			if got, want := walkAll(tr), walkAll(o); got != want {
				t.Fatalf("%s: walk diverges from %T:\n got: %s\nwant: %s", op, o, got, want)
			}
		}
	}
	for i := 0; i < 6; i++ { // epochs 0..5 cold, 6.. hot
		d, xd, _ := tr.demoteOldest()
		sum += d
		idxSum += xd
	}
	for i, ts := range []int64{40, 5} { // late arrivals into cold epochs 2 and 0
		late, seq := pairTuple(ts), uint64(9000+i)
		d, xd := tr.insert(late, seq, ts/16)
		sum += d
		idxSum += xd
		for _, o := range oracles {
			o.insert(late, seq, ts/16)
		}
	}
	if v := tr.ring.vals; v[0].cold || !v[1].cold || v[2].cold || !v[3].cold {
		t.Fatal("late inserts did not leave hot and cold slots interleaved")
	}
	sameAsOracles("late insert into demoted epochs")
	for _, head := range []string{"hot", "cold"} { // shed hot epoch 0, then cold epoch 1
		_, removed, d, xd, ok := tr.dropOldest()
		sum += d
		idxSum += xd
		for _, o := range oracles {
			if _, r, _, _, k := o.dropOldest(); r != removed || k != ok {
				t.Fatalf("shedding the %s head removed %d (ok=%v), %T removed %d (ok=%v)", head, removed, ok, o, r, k)
			}
		}
		sameAsOracles("shed of the " + head + " head")
	}
	if v := tr.ring.vals; v[0].cold || !v[1].cold || v[1].minTS >= 56 || v[1].maxTS < 56 {
		t.Fatal("prune cut 56 does not land inside a cold epoch")
	}
	removed, d, xd := tr.prune(56) // drops hot epoch 2, splits cold epoch 3
	sum += d
	idxSum += xd
	for _, o := range oracles {
		if r, _, _ := o.prune(56); r != removed {
			t.Fatalf("prune inside a cold epoch removed %d, %T removed %d", removed, o, r)
		}
	}
	sameAsOracles("prune cut inside a cold epoch")

	// Prune both through the same cuts; removal counts and the
	// remaining state must stay identical, including cold tombstones.
	for _, pc := range []int64{0, 100, 200, 400} {
		for i := 0; i < 4; i++ { // re-demote some epochs between prunes
			if d, xd, ok := tr.demoteOldest(); ok {
				sum += d
				idxSum += xd
			}
		}
		rc, dc, xc := col.prune(tuple.Time(pc))
		rt, dt, xt := tr.prune(tuple.Time(pc))
		sum += dt
		idxSum += xt
		check(fmt.Sprintf("prune %d", pc))
		if rc != rt {
			t.Fatalf("prune %d removed %d on tiered, %d on columnar", pc, rt, rc)
		}
		_, _ = dc, xc
		if got, want := walkAll(tr), walkAll(col); got != want {
			t.Fatalf("after prune %d, walks diverge:\n got: %s\nwant: %s", pc, got, want)
		}
	}
	if _, d, xd := tr.clear(); true {
		sum += d
		idxSum += xd
	}
	if sum != 0 || idxSum != 0 {
		t.Fatalf("deltas do not telescope: bytes %d, index %d after clear", sum, idxSum)
	}
	if tr.spilled.Load() != 0 {
		t.Fatalf("%d bytes still spilled after clear", tr.spilled.Load())
	}
	if err := tr.store.close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.store.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// promotePendingNoop applies promotePending and asserts it was a no-op
// (used where the test expects nothing pending).
func (c *columnarState) promotePendingNoop(t *testing.T) {
	t.Helper()
	if d, xd := c.promotePending(); d != 0 || xd != 0 {
		t.Fatalf("unexpected pending promotions (delta %d, idx %d)", d, xd)
	}
}

// TestTieredDemoteReusesFrames: a promote/demote swing of an unchanged
// epoch must not rewrite the spill file — the frame from the first
// demotion is revived in O(1), and with it the key filters its stub took
// from the epoch's indices. Only a mutation (an insert into the promoted
// epoch) forces a fresh append.
func TestTieredDemoteReusesFrames(t *testing.T) {
	_, tr := tieredPair(300)
	defer tr.store.close()
	probeAll(tr, noCut) // while hot: every epoch gets the index on R.a its stub takes the filter of
	key := &newBackendProbe("R.a").rp.key
	filters := func() map[int64]*uint64 {
		t.Helper()
		m := map[int64]*uint64{}
		for _, s := range coldSlots(tr) {
			f := s.stub.filterFor(key)
			if f == nil {
				t.Fatalf("cold epoch %d carries no filter on %s", s.epoch, key.id)
			}
			m[s.epoch] = &f[0]
		}
		return m
	}
	demoteAll := func() {
		for {
			if _, _, ok := tr.demoteOldest(); !ok {
				return
			}
		}
	}
	demoteAll()
	size1 := tr.store.size
	if size1 == 0 {
		t.Fatal("nothing spilled")
	}
	filters1 := filters()
	want, _ := probeAll(tr, noCut) // reads every cold epoch through
	tr.promotePending()
	if n := len(coldSlots(tr)); n != 0 {
		t.Fatalf("%d cold epochs after full promotion", n)
	}
	demoteAll()
	if tr.store.size != size1 {
		t.Fatalf("re-demoting unchanged epochs grew the spill file %d → %d bytes", size1, tr.store.size)
	}
	if !maps.Equal(filters(), filters1) {
		t.Fatal("a revived frame did not revive the filters of its first demotion")
	}
	if got, _ := probeAll(tr, noCut); got != want {
		t.Fatal("probe diverges after a reuse round trip")
	}

	// Mutating a promoted epoch invalidates its frame: the next
	// demotion of that epoch must append fresh bytes.
	tr.promotePending()
	ep := tr.ring.eps[0]
	tr.insert(pairTuple(ep*16+1), 9001, ep)
	demoteAll()
	if tr.store.size == size1 {
		t.Fatal("demoting a mutated epoch reused its stale frame")
	}
}

// TestTieredSpillCorruption truncates the spill file at every byte
// offset and flips every byte of the newest cold frame: each mutation
// must surface through the failure hook as a wrapped ErrCorruptSnapshot
// — never a panic — on both readers of the shared loader: the probe
// path, which returns without the damaged epoch rather than fabricating
// candidates, and the checkpoint walk (segment), which visits none of
// the damaged epoch's tuples rather than a short snapshot.
func TestTieredSpillCorruption(t *testing.T) {
	var failErr error
	schema := tuple.NewSchema("R.a", "R.τ")
	tr := bareColumnar(&failErr)
	defer tr.store.close()
	for ts := int64(1); ts <= 64; ts++ {
		tr.insert(tuple.New(schema, tuple.Time(ts), tuple.IntValue(1), tuple.IntValue(ts)), uint64(ts), ts/16)
	}
	for {
		if _, _, ok := tr.demoteOldest(); !ok {
			break
		}
	}
	cold := coldSlots(tr)
	if len(cold) < 2 {
		t.Fatalf("only %d cold epochs — corruption sweep vacuous", len(cold))
	}
	last := cold[len(cold)-1]
	probe := newBackendProbe("R.a")
	// Each reader reports how many tuples of the newest cold epoch it saw.
	readers := []struct {
		name string
		read func() int
	}{
		{"probe", func() (n int) {
			matches, _, _ := probe.scan(tr, noCut, tuple.IntValue(1))
			for _, m := range matches {
				if int64(m.ts)/16 == last.epoch {
					n++
				}
			}
			// Forget the read-through decodes so the next read hits disk.
			for _, s := range cold {
				if s.stub.loaded != nil {
					s.stub.loaded = nil
					tr.pending--
				}
			}
			return n
		}},
		{"walk", func() (n int) {
			for _, ep := range tr.epochs() {
				forEachRow(tr, ep, func(tp *tuple.Tuple, _ uint64) {
					if int64(tp.TS)/16 == last.epoch {
						n++
					}
				})
			}
			return n
		}},
	}

	fi, err := tr.store.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	orig := make([]byte, size)
	if _, err := tr.store.f.ReadAt(orig, 0); err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := tr.store.f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.store.f.WriteAt(orig, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range readers {
		failErr = nil
		if n := r.read(); failErr != nil || n != last.stub.count {
			t.Fatalf("%s: clean file read %d/%d tuples of epoch %d (err=%v)", r.name, n, last.stub.count, last.epoch, failErr)
		}
		damaged := func(what string) {
			t.Helper()
			failErr = nil
			n := r.read()
			if failErr == nil {
				t.Fatalf("%s: %s read successfully", r.name, what)
			}
			if !errors.Is(failErr, ErrCorruptSnapshot) {
				t.Fatalf("%s: %s: error %v does not wrap ErrCorruptSnapshot", r.name, what, failErr)
			}
			if n != 0 {
				t.Fatalf("%s: %s still delivered %d tuples of the damaged epoch", r.name, what, n)
			}
		}

		// Truncation sweep: the newest cold frame ends at EOF, so every
		// cut below size must fail its read with a wrapped corruption error.
		for cut := size - 1; cut >= 0; cut-- {
			restore()
			if err := tr.store.f.Truncate(cut); err != nil {
				t.Fatal(err)
			}
			damaged(fmt.Sprintf("truncation to %d/%d bytes", cut, size))
		}

		// Bit-flip sweep over the newest frame's payload: CRC must catch
		// every single-byte mutation.
		restore()
		for i := last.stub.off; i < last.stub.off+last.stub.len; i++ {
			tr.store.f.WriteAt([]byte{orig[i] ^ 0xFF}, i)
			damaged(fmt.Sprintf("flipped byte %d", i))
			tr.store.f.WriteAt([]byte{orig[i]}, i)
		}

		// Restored file reads clean again.
		restore()
		failErr = nil
		if n := r.read(); failErr != nil || n != last.stub.count {
			t.Fatalf("%s: restored file read %d/%d tuples (err=%v)", r.name, n, last.stub.count, failErr)
		}
	}
}

// TestTieredCrashDuringDemotion panics inside demotion's crash window —
// the segment frame is durable in the spill file, but the slot has not
// turned cold. The epoch must still be wholly hot (not lost, not
// duplicated), the spill gauges untouched, and a plain retry must
// complete the demotion.
func TestTieredCrashDuringDemotion(t *testing.T) {
	_, tr := tieredPair(300)
	defer tr.store.close()
	wantWalk := walkAll(tr)
	oldest := tr.ring.vals[0]
	slots := len(tr.ring.vals)

	tr.testCrashAfterSpill = func() { panic("injected crash between spill append and slot flip") }
	crashed := func() (r any) {
		defer func() { r = recover() }()
		tr.demoteOldest()
		return nil
	}()
	if crashed == nil {
		t.Fatal("injected crash did not fire — demotion never reached the window")
	}
	tr.testCrashAfterSpill = nil

	if got := hotSlots(tr); got != slots || len(tr.ring.vals) != slots {
		t.Fatalf("crash changed the ring: %d hot of %d slots, want %d of %d", got, len(tr.ring.vals), slots, slots)
	}
	if tr.spilled.Load() != 0 {
		t.Fatalf("spilled gauge %d after aborted demotion, want 0 (orphan frames are dead weight, not live state)", tr.spilled.Load())
	}
	if got := walkAll(tr); got != wantWalk {
		t.Fatal("state diverged across the crashed demotion")
	}

	// The retry demotes cleanly; the orphan frame from the crashed
	// attempt stays dead in the file and is never read.
	if _, _, ok := tr.demoteOldest(); !ok {
		t.Fatal("retry after crashed demotion refused")
	}
	if !oldest.cold || tr.ring.vals[0] != oldest {
		t.Fatalf("retry did not demote epoch %d in place", oldest.epoch)
	}
	if got := walkAll(tr); got != wantWalk {
		t.Fatal("state diverged across the retried demotion")
	}
}

// TestTieredHoldsTenWindowsUnderHotBudget sizes a hot budget from the
// resident footprint of a long-state store, then grows a store ten times
// that long under it and probes it with misses and hot hits. The tier must absorb
// the overflow without touching the answer: nothing evicted, the excess
// on disk, resident bytes within twice the budget (the newest epoch
// never demotes, and each cold epoch keeps a stub), and the probes
// reading cold epochs through where their filters admit the key and
// finding no candidate in some.
func TestTieredHoldsTenWindowsUnderHotBudget(t *testing.T) {
	const stored, epochLen = 1000, 256
	run := func(tuples int, hot int64) (Snapshot, int64) {
		h := newHarness(t, "q1: R(a) S(a)",
			core.Options{StoreParallelism: 1},
			flatEstimates([]string{"R", "S"}, 1000),
			Config{Substrate: SubstrateSynchronous, StateBackend: BackendColumnar, StateHotBytes: hot, StateSpillDir: t.TempDir(),
				DefaultWindow: tuple.Duration(4 * tuples), EpochLength: epochLen})
		defer h.eng.Stop()
		var results int64
		h.eng.OnResult("q1", func(*tuple.Tuple) { results++ })
		ingestZipfProbes(t, h.eng, 1, 0, 5) // key every segment's index
		for i, k := range zipfKeys(tuples, 4) {
			if err := h.eng.Ingest("R", tuple.Time(i+1), tuple.IntValue(k)); err != nil {
				t.Fatal(err)
			}
		}
		h.eng.Drain()
		if hot > 0 && h.eng.Metrics().Snapshot().DemotedEpochs == 0 {
			t.Fatalf("nothing demoted under a %d-byte hot budget — test vacuous", hot)
		}
		ingestZipfProbes(t, h.eng, 100, tuple.Time(tuples), 6)
		return h.eng.Metrics().Snapshot(), results
	}
	one, _ := run(stored, 0)
	budget := one.StoreBytes
	m, results := run(10*stored, budget)
	t.Logf("10x window: %d tuples under a %d-byte hot budget — resident %d, spilled %d, demoted %d / promoted %d epochs, cold probes %d hits / %d misses, evicted %d, %d results",
		m.Stored, budget, m.StoreBytes, m.SpilledBytes, m.DemotedEpochs, m.PromotedEpochs,
		m.ColdProbeHits, m.ColdProbeMisses, m.EvictedTuples, results)
	if m.EvictedTuples != 0 || m.EvictedEpochs != 0 {
		t.Errorf("evicted %d epochs / %d tuples — the tier must absorb the overflow losslessly", m.EvictedEpochs, m.EvictedTuples)
	}
	if m.SpilledBytes == 0 {
		t.Error("nothing on disk")
	}
	if m.StoreBytes > 2*budget {
		t.Errorf("resident bytes %d exceed twice the %d-byte hot budget", m.StoreBytes, budget)
	}
	if m.ColdProbeHits == 0 || m.ColdProbeMisses == 0 {
		t.Errorf("probes never exercised the stubs both ways (hits=%d misses=%d)", m.ColdProbeHits, m.ColdProbeMisses)
	}
	if results == 0 {
		t.Error("no results — test vacuous")
	}
}
