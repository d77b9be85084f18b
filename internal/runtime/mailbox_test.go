package runtime

// Edge-case coverage for the mailbox ring that every asynchronous
// substrate depends on: grow-while-wrapped unwrapping, oversized-ring
// release between bursts, and close-while-draining.

import (
	"sync/atomic"
	"testing"
)

// seqMsg tags a message with a recognizable sequence for FIFO checks.
func seqMsg(i int) message { return message{seq: uint64(i), epoch: int64(i)} }

// TestMailboxGrowWhileWrapped forces the ring into a wrapped state via
// a bounded drain (head > 0, live region crossing the array end), then
// grows it and verifies FIFO order survives the unwrap.
func TestMailboxGrowWhileWrapped(t *testing.T) {
	m := &mailbox{}
	next := 0
	// Fill the initial 16-slot ring completely.
	for ; next < 16; next++ {
		m.put(seqMsg(next))
	}
	// Consume a prefix so head advances to 5...
	got, remaining := m.drainN(nil, 5)
	if len(got) != 5 || got[0].seq != 0 || got[4].seq != 4 {
		t.Fatalf("bounded drain returned %d messages, first %d last %d", len(got), got[0].seq, got[len(got)-1].seq)
	}
	if remaining != 11 {
		t.Fatalf("drainN reported %d remaining, want 11", remaining)
	}
	// ...then refill past the array end so the live region wraps.
	for ; next < 21; next++ {
		m.put(seqMsg(next))
	}
	if m.count != 16 || m.head != 5 {
		t.Fatalf("ring not wrapped as expected: head=%d count=%d", m.head, m.count)
	}
	// One more put triggers grow on a wrapped ring: the oldest message
	// must land at index 0 and order must be preserved end to end.
	m.put(seqMsg(next))
	next++
	if m.head != 0 || len(m.buf) != 32 {
		t.Fatalf("grow did not unwrap: head=%d len=%d", m.head, len(m.buf))
	}
	rest, remaining := m.drainN(nil, 0)
	if len(rest) != 17 || remaining != 0 {
		t.Fatalf("drained %d messages leaving %d, want 17 leaving 0", len(rest), remaining)
	}
	for i, msg := range rest {
		if want := uint64(i + 5); msg.seq != want {
			t.Fatalf("FIFO order broken at %d: seq %d, want %d", i, msg.seq, want)
		}
	}
}

// TestMailboxReleasesOversizedRing verifies a burst larger than the
// retention threshold does not pin its high-water storage after the
// ring empties: partial drains keep the ring (with the drained slots
// zeroed), only the drain that empties it may release.
func TestMailboxReleasesOversizedRing(t *testing.T) {
	m := &mailbox{}
	for i := 0; i < 2000; i++ {
		m.put(seqMsg(i))
	}
	if len(m.buf) <= 1024 {
		t.Fatalf("ring did not grow past the threshold: %d", len(m.buf))
	}
	if _, remaining := m.drainN(nil, 1500); remaining != 500 || m.buf == nil {
		t.Fatalf("partial drain left %d (ring released early: %v)", remaining, m.buf == nil)
	}
	for i := 0; i < m.head; i++ {
		if m.buf[i].seq != 0 || m.buf[i].epoch != 0 {
			t.Fatalf("drained slot %d still holds seq %d", i, m.buf[i].seq)
		}
	}
	if got, _ := m.drainN(nil, 0); len(got) != 500 || got[0].seq != 1500 {
		t.Fatalf("final drain returned %d messages", len(got))
	}
	if m.buf != nil {
		t.Errorf("oversized ring retained after burst (len %d)", len(m.buf))
	}
	// The next burst starts from a fresh, small ring.
	m.put(seqMsg(1))
	if len(m.buf) != 16 {
		t.Errorf("ring after release has %d slots, want 16", len(m.buf))
	}
}

// TestMailboxCloseWhileDraining covers the shutdown handshake the
// worker pool relies on: a consumer keeps draining in bounded batches
// while the producer closes the mailbox under it. Every accepted put is
// delivered exactly once, in FIFO order, backlog included; every put
// after close is rejected (its sender compensates the accounting).
func TestMailboxCloseWhileDraining(t *testing.T) {
	m := &mailbox{}
	const n, closeAt = 20000, 10000
	var finished atomic.Bool
	accepted, rejectedEarly := 0, 0
	go func() {
		for i := 0; i < n; i++ {
			if i == closeAt {
				m.close()
			}
			if m.put(seqMsg(accepted)) {
				accepted++
			} else if i < closeAt {
				rejectedEarly++
			}
		}
		finished.Store(true)
	}()
	var got []message
	for {
		// Read the flag before draining: once it is set every put has
		// returned, so an empty drain afterwards is final.
		done := finished.Load()
		before := len(got)
		var remaining int
		got, remaining = m.drainN(got, 7)
		if done && len(got) == before && remaining == 0 {
			break
		}
	}
	if rejectedEarly != 0 || accepted != closeAt {
		t.Fatalf("mailbox accepted %d puts (%d rejected before close), want exactly the %d before close",
			accepted, rejectedEarly, closeAt)
	}
	if len(got) != accepted {
		t.Fatalf("drained %d messages, %d accepted", len(got), accepted)
	}
	for i, msg := range got {
		if msg.seq != uint64(i) {
			t.Fatalf("FIFO order broken at %d: seq %d", i, msg.seq)
		}
	}

	// Close with buffered messages: the backlog still drains, nothing new
	// gets in.
	m2 := &mailbox{}
	m2.put(seqMsg(1))
	m2.put(seqMsg(2))
	m2.close()
	if m2.put(seqMsg(3)) {
		t.Error("put after close accepted")
	}
	if got, remaining := m2.drainN(nil, 0); len(got) != 2 || remaining != 0 {
		t.Fatalf("close lost buffered messages: n=%d remaining=%d", len(got), remaining)
	}
	if m2.depth() != 0 {
		t.Error("closed mailbox still buffers messages")
	}
}
