package core

import "sync"

// symbols gives the optimizer's string identities dense integer ids:
// decorated orders (DecoratedOrder.Key), steps (Step.Key), stores (MIR
// keys) and decorations (a store with one partitioning attribute — the
// z variable's identity). Ids are assigned where a candidate structure
// is built and travel with it through the cross-churn cache, so a solve
// indexes its variables, its warm-start scratch and its incumbent lookups
// by slices instead of maps keyed by freshly concatenated strings.
//
// One table serves every solve that shares a Reopt (a builder without
// one owns its own), so equal keys get equal ids across queries and
// steps. Ids are never reused: the table grows by the keys of new
// queries, and Reopt.Advance starts a new one, dropping the structures
// built under the old, once it holds several times what is live.
type symbols struct {
	mu                            sync.Mutex
	orders, steps, stores, decors map[string]int32
}

// minSymbolCap is the least size at which a table is replaced.
const minSymbolCap = 1 << 16

func newSymbols() *symbols {
	return &symbols{
		orders: map[string]int32{},
		steps:  map[string]int32{},
		stores: map[string]int32{},
		decors: map[string]int32{},
	}
}

// intern returns key's id in space, assigning the next one if key is new.
func (s *symbols) intern(space map[string]int32, key string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := space[key]
	if !ok {
		id = int32(len(space))
		space[key] = id
	}
	return id
}

// order returns the id of an order key already interned, -1 otherwise.
func (s *symbols) order(key string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.orders[key]; ok {
		return id
	}
	return -1
}

// sizes reports the length of each id space: every id a structure built
// so far carries is below its space's length.
func (s *symbols) sizes() (orders, steps, stores, decors int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.orders), len(s.steps), len(s.stores), len(s.decors)
}

// len is the number of keys in all spaces.
func (s *symbols) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.orders) + len(s.steps) + len(s.stores) + len(s.decors)
}
