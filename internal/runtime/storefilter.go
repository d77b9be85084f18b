package runtime

// Store filters (DESIGN.md §10): the upper of the two levels of negative
// filter. Each epoch's index carries a keyFilter over the hashes its
// table holds (columnar.go), so a probe that reaches an epoch holding
// nothing under its key pays one word there — but it pays that word, and
// the index lookup before it, once per resident epoch. A store filter is
// one more keyFilter per task and probed key, over the key hash of every
// hot resident row, tested once per probe before either backend's epoch
// loop: a negative skips every hot epoch at once. Cold epochs are still
// answered by their stub filters (spill.go).
//
// The filter is a superset of the hot rows' key hashes, never an exact
// set. Rows enter it, and only enter it, where a hash enters an epoch's
// table (colIndex.link, through the index's feed): insert, and with it
// LoadTaskEpoch, and promotion. That needs every hot epoch to hold an
// index under each probed key from its first row, so probedKeys.open
// gives a new epoch one per key and a key probed for the first time is
// built on every hot epoch at once. Rows that leave — prune, eviction,
// demotion — stay in the filter: a stale bit costs a false positive,
// which the epoch filters behind it answer. Nothing ever clears a bit;
// instead the filter is rebuilt from the hot tables' slot hashes when it
// holds its capacity, with room for at least twice the distinct hashes
// it then covers, so a store in steady state rebuilds about once per
// window of inserts. The filter goes only with the store's last epoch (prune or
// clear), when no hot row is left for it to cover, or with its key when
// no compiled plan probes the store under it any more (retire).

import "slices"

// minStoreBlocks is the smallest store filter: 8 blocks, 128 hashes.
const minStoreBlocks = 8

// storeFilter is a task's hot-ring filter under one probed key. Its
// capacity is 16 distinct hashes per block — four bits per hash when
// full, eight right after a build.
type storeFilter struct {
	filt keyFilter
	// n counts the hashes fed since the filter was sized that it did not
	// admit yet: about the distinct hashes it holds, which is what its
	// false-positive rate follows. A hash still set from a row that left
	// costs nothing when the key returns.
	n int
}

// full reports that the filter holds its capacity (a released filter
// has none): the next probe rebuilds it.
func (f *storeFilter) full() bool { return f.n >= 16*len(f.filt) }

// add sets the hash's bits, counting it when it sets a new one. The
// count is branch-free: a feed sits on every insert.
func (f *storeFilter) add(h uint64) {
	w := &f.filt[h>>3&uint64(len(f.filt)-1)]
	fresh := filterBits(h) &^ *w
	*w |= fresh
	f.n += int((fresh | -fresh) >> 63)
}

// blocksFor is the smallest filter with room for at least twice count
// hashes.
func blocksFor(count int) int {
	blocks := minStoreBlocks
	for 16*blocks < 2*count {
		blocks *= 2
	}
	return blocks
}

// size replaces the filter by an empty one for count hashes.
func (f *storeFilter) size(count int) {
	f.filt, f.n = make(keyFilter, blocksFor(count)), 0
}

// addSlots feeds every slot hash of the index's table.
func (f *storeFilter) addSlots(ix *colIndex) {
	for i, head := range ix.heads {
		if head >= 0 {
			f.add(ix.hashes[i])
		}
	}
}

// rebuild refills the filter from the slot hashes of the hot tables
// under its key and returns the change in bytes. It is sized for twice
// the distinct hashes they hold: a first fill, sized for their sum,
// counts them (a key several epochs hold is fed once per epoch and
// admitted once), and when the count asks for a smaller filter the
// hashes are fed again at that size.
func (f *storeFilter) rebuild(hot []*colIndex) (delta int64) {
	before := f.filt.bytes()
	sum := 0
	for _, ix := range hot {
		sum += ix.used
	}
	for count := sum; ; count = f.n {
		f.size(count)
		for _, ix := range hot {
			f.addSlots(ix)
		}
		if blocksFor(f.n) == len(f.filt) {
			return f.filt.bytes() - before
		}
	}
}

// buildStoreFilter is the slow path of a backend's storeFilter, over its
// hot epochs: on a key's first probe (pk nil) it registers the key and
// every hot epoch builds its index under it, from the backend's pool;
// then it rebuilds the key's filter from the hot tables' slot hashes.
// idxDelta is the bytes built.
func buildStoreFilter[E interface {
	indexFor(*indexKey, *indexPool) (*colIndex, bool)
}](ks *probedKeys, pool *indexPool, pk *probedKey, key *indexKey, hot []E) (f keyFilter, idxDelta int64) {
	if pk == nil {
		pk = ks.add(key)
	}
	ixs := make([]*colIndex, len(hot))
	for i, e := range hot {
		ix, built := e.indexFor(key, pool)
		if built {
			ix.feed = &pk.sf
			idxDelta += ix.resident()
		}
		ixs[i] = ix
	}
	idxDelta += pk.sf.rebuild(ixs)
	return pk.sf.filt, idxDelta
}

// probedKey is one index key a task's probes have used, with its store
// filter. Every hot epoch of the task holds an index under the key,
// whose feed is sf.
type probedKey struct {
	key indexKey
	sf  storeFilter
}

// probedKeys lists a task store's probed keys; a store is probed under
// one or two, so lookups are short integer-compare loops.
type probedKeys []*probedKey

func (ks probedKeys) get(key *indexKey) *probedKey {
	for _, pk := range ks {
		if pk.key.num == key.num {
			return pk
		}
	}
	return nil
}

// add registers a key with an empty (full) filter; the caller builds the
// key's index on every hot epoch, then the filter.
func (ks *probedKeys) add(key *indexKey) *probedKey {
	pk := &probedKey{key: *key}
	*ks = append(*ks, pk)
	return pk
}

// retire removes and returns the keys in neither list.
func (ks *probedKeys) retire(cur, prev []int32) (gone probedKeys) {
	kept := (*ks)[:0]
	for _, pk := range *ks {
		if slices.Contains(cur, pk.key.num) || slices.Contains(prev, pk.key.num) {
			kept = append(kept, pk)
		} else {
			gone = append(gone, pk)
		}
	}
	clear((*ks)[len(kept):])
	*ks = kept
	return gone
}

// open gives a new hot epoch an empty index from the pool under every
// probed key, each feeding its key's filter, and re-allocates a filter
// that went with the store's last epoch. It returns the filter bytes
// allocated.
func (ks probedKeys) open(xs *indexSet, pool *indexPool) (idxDelta int64) {
	for _, pk := range ks {
		if pk.sf.filt == nil {
			pk.sf.size(0)
			idxDelta += pk.sf.filt.bytes()
		}
		xs.add(&pk.key, pool).feed = &pk.sf
	}
	return idxDelta
}

// release drops every filter with the store's last epoch, returning the
// change in bytes.
func (ks probedKeys) release() (idxDelta int64) {
	for _, pk := range ks {
		idxDelta -= pk.sf.filt.bytes()
		pk.sf = storeFilter{}
	}
	return idxDelta
}

func (ks probedKeys) bytes() int64 {
	var b int64
	for _, pk := range ks {
		b += pk.sf.filt.bytes()
	}
	return b
}
