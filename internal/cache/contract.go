package cache

import (
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// ContentStore is the lookup contract a forwarder requires of its
// Content Store. *Store (the flat, single-tier store) is the canonical
// implementation; internal/cache/tiered adds a RAM-over-disk two-tier
// implementation behind the same contract. Implementations are not safe
// for concurrent use: every call happens on the owning node's executor.
type ContentStore interface {
	// Insert caches data at virtual time now, recording the original
	// fetch delay γ_C, and returns the entry for metadata updates.
	Insert(data *ndn.Data, now, fetchDelay time.Duration) *Entry
	// Match finds a cached object satisfying the interest under NDN's
	// longest-prefix rule, skipping stale entries.
	Match(interest *ndn.Interest, now time.Duration) (*Entry, bool)
	// Exact returns the entry whose name equals name exactly, if fresh.
	Exact(name ndn.Name, now time.Duration) (*Entry, bool)
	// ExactView is Exact over a zero-copy name view — the wire-facing
	// lookup whose latency the timing adversary measures. It must not
	// allocate on the hit path.
	ExactView(v *ndn.NameView, now time.Duration) (*Entry, bool)
	// Touch records a cache hit for eviction-recency purposes.
	Touch(name ndn.Name)
	// Remove deletes the entry for exactly name at virtual time now.
	Remove(name ndn.Name, now time.Duration) bool
	// Clear empties the store at virtual time now.
	Clear(now time.Duration)
	// Len returns the number of cached objects; Capacity the configured
	// object capacity (0 = unlimited).
	Len() int
	Capacity() int
	// PolicyName names the eviction policy for diagnostics.
	PolicyName() string
	// Names returns the full names of all cached objects in name
	// order.
	Names() []ndn.Name
	// Activity counters, shared with the telemetry registry once
	// Instrument has been called.
	Insertions() uint64
	Evictions() uint64
	Hits() uint64
	Misses() uint64
	// SetEvictionHook registers a callback invoked whenever an entry
	// leaves the store entirely (not on inter-tier movement).
	SetEvictionHook(hook func(*Entry))
	// Instrument attaches metrics and trace output; InstrumentSpans
	// attaches residency-span recording; FinishSpans closes still-open
	// residency spans at end of run.
	Instrument(reg *telemetry.Registry, sink telemetry.Sink, node string)
	InstrumentSpans(tr *span.Tracer, node string)
	FinishSpans(now time.Duration)
}

var _ ContentStore = (*Store)(nil)

// Tier identifies which storage tier served a lookup.
type Tier uint8

const (
	// TierNone: the lookup missed every tier.
	TierNone Tier = iota
	// TierRAM: the RAM front served.
	TierRAM
	// TierSecond: the second (disk) tier served.
	TierSecond
)

// String names the tier for diagnostics and telemetry actions.
func (t Tier) String() string {
	switch t {
	case TierRAM:
		return "ram"
	case TierSecond:
		return "disk"
	default:
		return "none"
	}
}

// TierInfo describes where the most recent lookup was served from and
// the modeled service delay that tier added. Cost is zero for RAM hits
// and for real (wall-clock) disk backends, whose I/O time is physically
// observable; the simulator's deterministic disk model reports its
// virtual-time service latency here so the forwarder can delay the
// response accordingly — the third latency class the adversary measures.
type TierInfo struct {
	Tier Tier
	Cost time.Duration
}

// TieredContentStore is the optional capability a multi-tier store adds
// to the ContentStore contract. The forwarder resolves it once at
// construction (one nil check per packet afterwards) and, after a hit,
// consults LastLookup to learn the serving tier and its cost.
type TieredContentStore interface {
	ContentStore
	// LastLookup reports the serving tier of the most recent
	// Match/Exact/ExactView call. Valid until the next lookup;
	// single-threaded executors make this race-free.
	LastLookup() TierInfo
}
