package cluster

import (
	"sort"
	"time"
)

// ShardMetrics is one shard's slice of the cluster aggregate, read from
// the existing per-engine Metrics/Pressure surfaces.
type ShardMetrics struct {
	Routed     int64 // tuples the router placed here (including replicas)
	Handled    int64 // tuples the shard engine admitted (Snapshot.Ingested)
	Results    int64
	QueueDepth int64 // queued messages at read time
	Stored     int64
	StateBytes int64 // resident (hot) state incl. index overhead
	Shed       int64
	// Spill-tier counters (zero unless the shard runs the columnar
	// backend under a hot budget):
	// SpilledBytes is live cold-segment payload on disk — NOT part of
	// StateBytes, which gauges resident memory only.
	SpilledBytes  int64
	DemotedEpochs int64
	ColdHits      int64 // cold-epoch probe visits that consulted disk
}

// Metrics is the cluster-level aggregate.
type Metrics struct {
	Shards         []ShardMetrics
	RoutedTuples   int64 // admitted source tuples
	ReplicaTuples  int64 // extra placements beyond one per admitted tuple
	AdmissionDrops int64
	Results        int64
	// SpilledBytes is the cluster-wide live cold state on disk across
	// all shards' spill tiers.
	SpilledBytes int64
	// Imbalance is max/mean routed tuples per shard (1.0 = perfectly
	// even; 0 before any routing).
	Imbalance float64
	// P99Ingest is the 99th-percentile wall latency of Ingest (routing
	// plus shard delivery), over a sliding window of recent tuples.
	P99Ingest time.Duration
}

// Metrics aggregates the per-shard engine counters behind the front
// door's own routing/admission counters.
func (c *Cluster) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		RoutedTuples:   c.placed,
		ReplicaTuples:  c.extra,
		AdmissionDrops: c.drops,
		P99Ingest:      c.lat.p99(),
	}
	var sum, max int64
	for i, s := range c.shards {
		snap := s.Snapshot()
		pr := s.Pressure()
		sm := ShardMetrics{
			Routed:     c.routed[i],
			Handled:    snap.Ingested,
			Results:    snap.Results,
			QueueDepth: pr.QueuedMessages,
			Stored:     snap.Stored,
			StateBytes: snap.StoreBytes,
			Shed:       snap.ShedTuples,

			SpilledBytes:  snap.SpilledBytes,
			DemotedEpochs: snap.DemotedEpochs,
			ColdHits:      snap.ColdProbeHits,
		}
		m.Shards = append(m.Shards, sm)
		m.Results += sm.Results
		m.SpilledBytes += sm.SpilledBytes
		sum += sm.Routed
		if sm.Routed > max {
			max = sm.Routed
		}
	}
	if sum > 0 {
		m.Imbalance = float64(max) * float64(len(c.shards)) / float64(sum)
	}
	return m
}

// latencyRing is a fixed sliding window of ingest latencies for the p99
// aggregate — cheap to feed on the hot path, sorted only on read.
type latencyRing struct {
	buf  [4096]int64 // nanoseconds
	n    int         // filled entries (saturates at len(buf))
	next int
}

func (r *latencyRing) add(d time.Duration) {
	r.buf[r.next] = int64(d)
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *latencyRing) p99() time.Duration {
	if r.n == 0 {
		return 0
	}
	s := make([]int64, r.n)
	copy(s, r.buf[:r.n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(s[(r.n-1)*99/100])
}
