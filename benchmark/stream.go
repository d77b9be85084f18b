package main

import (
	"clash"
)

// stream is the generated input of one run: every tuple the program
// will ever see, built from the seed before any timing starts. Event
// times are not stored: tuple i carries ts = i+1, strictly increasing,
// so a result's TS (the maximum over its members) names the input that
// completed it. The layout is flat — one backing array of values — so
// the harness adds little to what the garbage collector has to scan.
type stream struct {
	names []string // relation names
	rel   []uint8  // relation of tuple i, an index into names
	off   []uint32 // values of tuple i are vals[off[i]:off[i+1]]
	vals  []clash.Value
}

func newStream(names []string, tuples int) *stream {
	return &stream{
		names: names,
		rel:   make([]uint8, 0, tuples),
		off:   append(make([]uint32, 0, tuples+1), 0),
	}
}

func (s *stream) add(rel int, vals ...clash.Value) {
	s.rel = append(s.rel, uint8(rel))
	s.vals = append(s.vals, vals...)
	s.off = append(s.off, uint32(len(s.vals)))
}

func (s *stream) len() int { return len(s.rel) }

func (s *stream) at(i int) (string, []clash.Value) {
	return s.names[s.rel[i]], s.vals[s.off[i]:s.off[i+1]]
}

// digest folds every relation name and value in order: two streams
// with the same digest feed the program the same inputs.
func (s *stream) digest() uint64 {
	h := uint64(14695981039346656037)
	for i := range s.rel {
		rel, vals := s.at(i)
		h = mix(h ^ hashString(rel))
		for _, v := range vals {
			h = mix(h ^ v.Hash())
		}
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
