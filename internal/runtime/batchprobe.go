package runtime

// Batched probe execution (DESIGN.md §12). A scalar probe path would
// hand the backend one probe at a time and receive candidates through a
// per-candidate visitor interface call; probeBatch instead carries a
// whole vector of probe tuples — a message's tuple batch — through one
// stateBackend.probeScanBatch pass. add hashes each probe's key — its
// values under ALL of the rule's equality predicates, in the rule's
// canonical key order (plan.go's indexKey) — exactly once, for either
// backend. The columnar backend amortizes the per-segment index
// resolution over the vector, skips segments whose max event time
// cannot reach any probe's window, gathers each chain into a selection
// vector off the flat seq column, and evaluates the predicates and
// window checks in a tight concrete loop (evalRows). The container
// backend keeps a loop-over-scalar implementation (one candidate at a
// time through visit, no window skipping), so it stays the byte-level
// differential oracle for the vectorized path. Either way a candidate
// is re-checked by value under every predicate: chains bucket by hash.
//
// Ordering contract: per probe, results come epochs ascending,
// insertion-order chains within a segment, on both backends. The
// columnar batch scan iterates segment-major (probe-minor), so its flat
// result log interleaves probes; group() regroups it probe-major with a
// stable counting sort, which preserves each probe's segment-ascending
// order. Forwarding then happens per probe, in probe arrival order,
// under the message's context — byte-identical emission order to the
// scalar path.
//
// Re-entrancy: on the synchronous substrate a sink callback inside
// forward may re-enter this task's probe path while the outer batch is
// still forwarding, so probeBatch values come from a per-task free list
// (task.getProbeBatch), exactly like the scalar path's result-buffer
// stack did; each level carves its sink-only results from its own
// batch's arena (DESIGN.md §7). A scan itself never nests — it
// completes before the first forward.

import (
	"math"

	"clash/internal/tuple"
)

// probeBatch is one batched probe: a vector of probe tuples bound to a
// rule plan, the per-probe scan inputs, and the scan's result log. All
// slices are reused across batches; a batched probe allocates only the
// join results it forwards and the outgoing messages.
type probeBatch struct {
	t  *task
	rp *rulePlan
	st *planState

	arena tuple.Arena // carves a sink-only plan's results; rewound by release

	probes  []*tuple.Tuple // probe tuples, arrival order
	ppos    [][]int        // probe-side predicate columns per probe
	hashes  []uint64       // index-key hash per probe (hashKey's fold)
	maxSeqs []uint64       // arrived-earlier cutoff per probe
	cuts    []int64        // window cutoff per probe (noCut: no skip)
	minCut  int64          // min over cuts: segment-level batch prefilter

	// admitStore's verdicts: the cutoff per probe for hot epochs (cuts[i],
	// or skipHot when the store filter rejected the probe's hash), its
	// minimum, and the cutoffs of the rejected probes in arrival order.
	hotCuts   []int64
	hotMinCut int64
	skipCuts  []int64

	sel []int32 // columnar scratch: selection vector of chain rows

	// cands counts the chain rows the scan walked for its probes — what
	// the index let through, before the arrived-earlier check on either
	// backend (Metrics.ProbeCandidates).
	cands int64
	// rejects counts the per-epoch index lookups a filter answered for its
	// probes without touching the table — an epoch filter, a cold stub's,
	// or the store filter for every hot epoch in the probe's reach
	// (Metrics.ProbeFilterRejects).
	rejects int64

	// Scan output: a flat log of (probe index, joined tuple) in scan
	// order. The container scan emits it probe-major already; the
	// columnar scan emits segment-major and group() regroups.
	resIdx  []int32
	resTups []*tuple.Tuple

	// group() output: per-probe result counts and the probe-major view
	// (grouped aliases resTups when the log is already probe-major).
	counts   []int32
	offs     []int32
	groupBuf []*tuple.Tuple
	grouped  []*tuple.Tuple

	// Scalar-scan cursor for the container oracle: the probe begin()
	// selected, read by visit below.
	cur       int32
	curProbe  *tuple.Tuple
	curPpos   []int
	curMaxSeq uint64
}

// reset rebinds the batch to a plan, keeping every backing array.
func (pb *probeBatch) reset(t *task, rp *rulePlan, st *planState) {
	pb.t, pb.rp, pb.st = t, rp, st
	pb.probes = pb.probes[:0]
	pb.ppos = pb.ppos[:0]
	pb.hashes = pb.hashes[:0]
	pb.maxSeqs = pb.maxSeqs[:0]
	pb.cuts = pb.cuts[:0]
	pb.minCut = math.MaxInt64
	pb.skipCuts = pb.skipCuts[:0]
	pb.cands, pb.rejects = 0, 0
	pb.resIdx = pb.resIdx[:0]
	pb.resTups = pb.resTups[:0]
}

// release rewinds the batch's arena, whose results' sinks have returned,
// and zeroes every other retained pointer so forwarded tuples stay
// collectable while the batch waits on the free list.
func (pb *probeBatch) release() {
	pb.arena.Reset()
	pb.t, pb.rp, pb.st = nil, nil, nil
	clear(pb.probes)
	clear(pb.ppos)
	clear(pb.resTups)
	clear(pb.groupBuf)
	pb.grouped = nil
	pb.curProbe, pb.curPpos = nil, nil
}

// addMsg appends every tuple the message carries as a probe under the
// message's sequence cutoff.
func (pb *probeBatch) addMsg(msg *message) {
	for _, tp := range msg.batch {
		pb.add(tp, msg.seq)
	}
}

// add appends one probe. Tuples whose schema lacks a probe attribute
// are dropped here — nothing can match them, exactly like the scalar
// path's probePos nil return.
func (pb *probeBatch) add(tp *tuple.Tuple, seq uint64) {
	ppos := pb.st.probePos(tp.Schema, pb.rp)
	if ppos == nil {
		return
	}
	cut := pb.t.probeCut(tp)
	pb.probes = append(pb.probes, tp)
	pb.ppos = append(pb.ppos, ppos)
	kp := pb.rp.keyPred
	h := colHash(tp.At(ppos[kp[0]]))
	for _, k := range kp[1:] {
		h = keyHash(h, colHash(tp.At(ppos[k])))
	}
	pb.hashes = append(pb.hashes, h)
	pb.maxSeqs = append(pb.maxSeqs, seq)
	pb.cuts = append(pb.cuts, cut)
	if cut < pb.minCut {
		pb.minCut = cut
	}
}

// skipHot is the hot-epoch cutoff of a probe the store filter answered:
// no hot epoch is in its reach.
const skipHot = int64(math.MaxInt64)

// admitStore tests every probe's hash against the store filter f, the
// first check of a batch scan (DESIGN.md §12): a probe f rejects can find
// no hot row, so it skips every hot epoch — its hot cutoff is skipHot —
// and only cold epochs are left for it to visit.
func (pb *probeBatch) admitStore(f keyFilter) {
	pb.hotCuts = pb.hotCuts[:0]
	pb.skipCuts = pb.skipCuts[:0]
	pb.hotMinCut = math.MaxInt64
	for i, h := range pb.hashes {
		cut := pb.cuts[i]
		if !f.may(h) {
			pb.skipCuts = append(pb.skipCuts, cut)
			cut = skipHot
		} else if cut < pb.hotMinCut {
			pb.hotMinCut = cut
		}
		pb.hotCuts = append(pb.hotCuts, cut)
	}
}

// skippedIn counts the probes the store filter answered that a hot epoch
// with the given max event time is in window reach of: the lookups the
// store filter spared there.
func (pb *probeBatch) skippedIn(maxTS int64) (n int64) {
	for _, cut := range pb.skipCuts {
		if cut <= maxTS {
			n++
		}
	}
	return n
}

// begin selects the probe the container oracle's scalar scan serves;
// the visit below reads the cursor.
func (pb *probeBatch) begin(i int) {
	pb.cur = int32(i)
	pb.curProbe = pb.probes[i]
	pb.curPpos = pb.ppos[i]
	pb.curMaxSeq = pb.maxSeqs[i]
}

// visit is the scalar candidate visitor of the container backend's
// loop-over-scalar batch scan: identical candidate logic to evalRows,
// one candidate at a time.
func (pb *probeBatch) visit(en *tuple.Tuple, seq uint64) {
	pb.cands++
	if seq >= pb.curMaxSeq {
		return // only earlier-arrived tuples are join partners
	}
	t := pb.t
	sh := pb.st.storedShapeFor(en.Schema, pb.rp, t.tauNames)
	for k := 0; k < len(pb.curPpos); k++ {
		sp := sh.predPos[k]
		if sp < 0 || en.At(sp) != pb.curProbe.At(pb.curPpos[k]) {
			return
		}
	}
	if !t.windowOK(pb.curProbe, en, sh) {
		return
	}
	res, rest := pb.result(pb.curProbe, en.Schema, en.TS)
	copy(rest, en.Values)
	pb.resTups = append(pb.resTups, res)
	pb.resIdx = append(pb.resIdx, pb.cur)
}

// result carves the join result of probe and a stored row of the given
// schema and time, from the batch's arena for a sink-only plan and the
// task's otherwise, and returns it with the cells left for the row's.
func (pb *probeBatch) result(probe *tuple.Tuple, stored *tuple.Schema, ts tuple.Time) (*tuple.Tuple, []tuple.Value) {
	a := &pb.t.arena
	if pb.rp.sinkOnly {
		a = &pb.arena
	}
	res := a.New(pb.t.joinedSchema(probe.Schema, stored), max(probe.TS, ts))
	n := copy(res.Values, probe.Values)
	return res, res.Values[n:]
}

// evalRows is the columnar backend's tight candidate loop: the rows of
// one segment's selection vector (already seq-filtered), evaluated for
// probe i with every per-probe load hoisted out of the loop. Predicates
// and window checks read the row's cells off the columns, beside the
// row id; only a row that passes both becomes part of a tuple, the join
// result, its cells copied straight from the columns. Appends to the
// flat result log in row order — the chain's insertion order.
func (pb *probeBatch) evalRows(i int, s *colSegment, sel []int32) {
	t, rp, st := pb.t, pb.rp, pb.st
	probe, ppos := pb.probes[i], pb.ppos[i]
	pts := int64(probe.TS)
	idx := int32(i)
	last := -1
	var sc *tuple.Schema
	var sh *storedShape
	for _, row := range sel {
		if o := int(s.sch[row]); o != last {
			last, sc = o, s.schemas[o]
			sh = st.storedShapeFor(sc, rp, t.tauNames)
		}
		match := true
		for k := 0; k < len(ppos); k++ {
			sp := sh.predPos[k]
			if sp < 0 || !s.cols[sp].eq(row, probe.At(ppos[k])) {
				match = false
				break
			}
		}
		for w := 0; match && w < len(t.wins); w++ {
			// windowOK on the row's τ cells (Int payloads).
			pos := sh.tauPos[w]
			match = pos < 0 || pts-s.cols[pos].nums[row] <= t.wins[w]
		}
		if !match {
			continue
		}
		res, rest := pb.result(probe, sc, tuple.Time(s.ts[row]))
		s.fill(int(row), rest)
		pb.resTups = append(pb.resTups, res)
		pb.resIdx = append(pb.resIdx, idx)
	}
}

// group turns the flat result log into the probe-major view forward
// consumes: per-probe counts plus a grouped slice where probe i's
// results are contiguous, in scan (segment-ascending, chain) order. A
// log that is already probe-major — every container scan, and any
// columnar scan over a single reachable segment — aliases resTups
// directly; otherwise a stable counting sort scatters into groupBuf.
func (pb *probeBatch) group() {
	n := len(pb.probes)
	if cap(pb.counts) < n {
		pb.counts = make([]int32, n)
		pb.offs = make([]int32, n)
	}
	pb.counts = pb.counts[:n]
	pb.offs = pb.offs[:n]
	clear(pb.counts)
	sorted := true
	last := int32(0)
	for _, i := range pb.resIdx {
		if i < last {
			sorted = false
		}
		last = i
		pb.counts[i]++
	}
	if sorted {
		pb.grouped = pb.resTups
		return
	}
	var off int32
	for i := range pb.counts {
		pb.offs[i] = off
		off += pb.counts[i]
	}
	if cap(pb.groupBuf) < len(pb.resTups) {
		pb.groupBuf = make([]*tuple.Tuple, len(pb.resTups))
	}
	buf := pb.groupBuf[:len(pb.resTups)]
	for j, i := range pb.resIdx {
		buf[pb.offs[i]] = pb.resTups[j]
		pb.offs[i]++
	}
	pb.grouped = buf
}

// forward forwards every probe's results, one forward per probe in
// arrival order — the same emission granularity and order as the
// scalar path.
func (pb *probeBatch) forward(msg *message, out []emitStep) {
	var off int32
	for _, n := range pb.counts {
		if n == 0 {
			continue
		}
		sub := pb.grouped[off : off+n : off+n]
		off += n
		pb.t.forward(out, msg, sub)
	}
}

// probeCut returns the oldest stored event time the probing tuple could
// still join under this task's windows: a backend may skip any segment
// whose max event time precedes it. Sound only when every relation
// materialized here is windowed — then every stored tuple carries at
// least one windowed τ column with τ ≤ its segment's max event time, so
// a segment entirely older than probe.TS − max(w) fails windowOK for
// every tuple it holds. Any unwindowed relation in the store disables
// the skip (MinInt64): a tuple carrying only unwindowed τ columns
// passes windowOK unconditionally and must stay reachable forever.
func (t *task) probeCut(tp *tuple.Tuple) int64 {
	if !t.winAll {
		return noCut
	}
	return int64(tp.TS) - t.wMax
}

// getProbeBatch pops a batch off the free list; re-entrant probes
// (synchronous-substrate sink feedback) pop distinct batches.
func (t *task) getProbeBatch() *probeBatch {
	if n := len(t.pbFree); n > 0 {
		pb := t.pbFree[n-1]
		t.pbFree = t.pbFree[:n-1]
		return pb
	}
	pb := &probeBatch{}
	pb.arena.Reset() // keeps the blocks from the first batch on
	return pb
}

// putProbeBatch releases the batch and returns it to the free list.
func (t *task) putProbeBatch(pb *probeBatch) {
	pb.release()
	t.pbFree = append(t.pbFree, pb)
}

// probeBatched probes every tuple the message carries through the
// backend's batch scan, then forwards per probe in arrival order. This
// is the compiled probe path for every batch size including one; the
// legacy oracle (task.probeLegacy) uses no index at all.
func (t *task) probeBatched(msg *message, rp *rulePlan, st *planState) {
	if len(rp.preds) == 0 {
		return // the optimizer never emits cross-product probes
	}
	if t.storedCount.Load() == 0 {
		return
	}
	pb := t.getProbeBatch()
	pb.reset(t, rp, st)
	pb.addMsg(msg)
	if len(pb.probes) != 0 {
		if d := t.state.probeScanBatch(&rp.key, pb); d != 0 {
			t.accountState(d, d) // indices and store filters built by the scan
		}
		if pb.cands != 0 {
			t.probeCands.Add(pb.cands)
			t.e.metrics.probeCands.Add(pb.cands)
			t.probeMatched += int64(len(pb.resTups))
		}
		if pb.rejects != 0 {
			t.probeRejects.Add(pb.rejects)
			t.e.metrics.probeRejects.Add(pb.rejects)
		}
		if n := int64(len(pb.skipCuts)); n != 0 {
			t.probeSkips.Add(n)
			t.e.metrics.probeSkips.Add(n)
		}
		pb.group()
		pb.forward(msg, rp.out)
	}
	t.putProbeBatch(pb)
}
