package cache

import (
	"fmt"
	"slices"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// Entry is one cached content object plus the metadata the paper's cache
// management algorithms consult.
type Entry struct {
	// Data is the cached content object.
	Data *ndn.Data
	// InsertedAt is the virtual time the object entered the cache.
	InsertedAt time.Duration
	// FetchDelay records the original interest-in→content-out delay γ_C —
	// how long this router took to obtain the content the first time
	// (Section V-B, content-specific delay).
	FetchDelay time.Duration
	// ForwardCount is S(C): how many times the router has forwarded this
	// content (Section IV system model). It survives within the entry's
	// cache lifetime.
	ForwardCount uint64
	// Private records router-side privacy marking: producer-driven (bit
	// or /private/ component) or consumer-driven (privacy bit on the
	// interest that fetched it).
	Private bool
	// NonPrivateTrigger is set once a non-private interest has been
	// answered for this entry; from then on the content is treated as
	// non-private for as long as it stays cached (Section V-B trigger
	// rule).
	NonPrivateTrigger bool
	// Counter is c_C from Algorithm 1: requests seen since insertion.
	Counter uint64
	// Threshold is k_C from Algorithm 1; meaningful when ThresholdSet.
	Threshold uint64
	// ThresholdSet records whether k_C has been drawn for this entry.
	ThresholdSet bool
	// GroupKey, when non-empty, names the correlation group this entry
	// shares Random-Cache state with (Section VI, "Addressing Content
	// Correlation").
	GroupKey string
	// residency is the open cache-lifetime span (insert → eviction);
	// nil when span tracing is disabled.
	residency *span.Record
}

// IsStale reports whether the entry's freshness period has lapsed at
// virtual time now. Entries without a freshness bound never go stale.
func (e *Entry) IsStale(now time.Duration) bool {
	return e.Data.Freshness > 0 && now-e.InsertedAt >= e.Data.Freshness
}

// entryPoolCap bounds the store's recycled-Entry free list.
const entryPoolCap = 1024

// Store is an NDN Content Store over the CS facets of a hash-indexed
// name table (internal/pcct). A capacity of 0 means unlimited (the
// paper's "Inf" baseline). Store is not safe for concurrent use; each
// simulated node runs single-threaded on the event loop.
type Store struct {
	capacity int
	policy   Policy
	// t holds the entries as CS facets.
	t *pcct.Table
	// pool recycles Entry metadata structs across insert/evict churn.
	// Recycling is skipped whenever a removal hook is registered — a
	// hook may legitimately retain the entry (the tiered store demotes
	// evicted entries into its second tier).
	pool     []*Entry
	onEvict  func(*Entry)
	onRemove func(*Entry, RemoveReason, time.Duration)
	// hidden holds the withheld candidates one Match takes out of the
	// name tree; reused across calls.
	hidden []*pcct.Entry

	// Activity counters live on telemetry.Counter so an instrumented
	// store shares them with the run's registry; uninstrumented stores
	// use standalone counters, so the accessors below always work.
	insertions *telemetry.Counter
	evictions  *telemetry.Counter
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	sink       telemetry.Sink
	node       string
	spans      *span.Tracer
}

// NewStore creates a store with the given capacity and eviction policy.
// policy must be non-nil when capacity > 0.
func NewStore(capacity int, policy Policy) (*Store, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("cache: negative capacity %d", capacity)
	}
	if capacity > 0 && policy == nil {
		return nil, fmt.Errorf("cache: bounded store (capacity %d) requires an eviction policy", capacity)
	}
	if policy == nil {
		policy = NewLRU() // harmless bookkeeping for unlimited stores
	}
	return &Store{
		capacity:   capacity,
		policy:     policy,
		t:          pcct.New(policy.kind()),
		insertions: telemetry.NewCounter(),
		evictions:  telemetry.NewCounter(),
		hits:       telemetry.NewCounter(),
		misses:     telemetry.NewCounter(),
	}, nil
}

// MustNewStore is NewStore that panics on error, for tests and examples
// with constant arguments.
func MustNewStore(capacity int, policy Policy) *Store {
	s, err := NewStore(capacity, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of cached objects.
func (s *Store) Len() int { return s.t.LenCS() }

// Capacity returns the configured capacity (0 = unlimited).
func (s *Store) Capacity() int { return s.capacity }

// Evictions returns the running count of capacity evictions. It reads
// the telemetry counter, so instrumented and standalone stores report
// identically.
func (s *Store) Evictions() uint64 { return s.evictions.Value() }

// Insertions returns the running count of inserted objects.
func (s *Store) Insertions() uint64 { return s.insertions.Value() }

// Hits returns the running count of lookups answered by a fresh entry
// (Match or Exact), including hits the privacy layer later disguises.
func (s *Store) Hits() uint64 { return s.hits.Value() }

// Misses returns the running count of lookups that found no fresh entry.
func (s *Store) Misses() uint64 { return s.misses.Value() }

// Instrument moves the store's counters onto the given registry under
// node-labeled identifiers and attaches the trace sink for insert/evict
// events. Running totals carry over. Either argument may be nil; call
// once, before or after traffic.
func (s *Store) Instrument(reg *telemetry.Registry, sink telemetry.Sink, node string) {
	if reg != nil {
		s.insertions = adoptCounter(reg, "ndn_cs_insertions_total", node, s.insertions)
		s.evictions = adoptCounter(reg, "ndn_cs_evictions_total", node, s.evictions)
		s.hits = adoptCounter(reg, "ndn_cs_hits_total", node, s.hits)
		s.misses = adoptCounter(reg, "ndn_cs_misses_total", node, s.misses)
	}
	s.sink = sink
	s.node = node
}

// InstrumentSpans attaches a span tracer recording cache-residency
// spans (one per entry, insert → eviction) under the given node label.
// A nil tracer disables residency recording.
func (s *Store) InstrumentSpans(tr *span.Tracer, node string) {
	s.spans = tr
	if node != "" {
		s.node = node
	}
}

// FinishSpans closes every still-open residency span at virtual time
// now with action "resident" — call once at end of run so entries that
// were never evicted still export a bounded span. Entries are visited
// in name order, so output order is deterministic.
func (s *Store) FinishSpans(now time.Duration) {
	if s.spans == nil {
		return
	}
	for _, e := range s.byName() {
		entry := e.CS().(*Entry)
		if entry.residency == nil {
			continue
		}
		s.spans.End(entry.residency, int64(now), "resident")
		entry.residency = nil
	}
}

// adoptCounter registers a node-labeled counter and folds the standalone
// counter's running total into it.
func adoptCounter(reg *telemetry.Registry, name, node string, old *telemetry.Counter) *telemetry.Counter {
	c := reg.Counter(telemetry.ID(name, "node", node))
	if c != old {
		c.Add(old.Value())
	}
	return c
}

// PolicyName returns the eviction policy's name.
func (s *Store) PolicyName() string { return s.policy.Name() }

// SetEvictionHook registers a callback invoked whenever an entry leaves
// the store (capacity eviction, staleness purge, or explicit removal).
// Cache managers with out-of-entry state — GroupedRandomCache — use it to
// garbage-collect.
func (s *Store) SetEvictionHook(hook func(*Entry)) { s.onEvict = hook }

// RemoveReason classifies why an entry left the store. The values double
// as the Action strings on EvCSEvict trace events.
type RemoveReason string

const (
	// ReasonCapacity: the eviction policy chose a victim to make room.
	ReasonCapacity RemoveReason = "capacity"
	// ReasonStale: a lookup found the entry past its freshness bound.
	ReasonStale RemoveReason = "stale"
	// ReasonRemove: explicit Remove call.
	ReasonRemove RemoveReason = "remove"
	// ReasonClear: explicit Clear call.
	ReasonClear RemoveReason = "clear"
)

// SetRemovalObserver registers a callback receiving every entry removal
// together with its reason and virtual time — richer than the eviction
// hook. The tiered store uses it to translate RAM-front capacity
// evictions into second-tier demotions while letting staleness purges
// and explicit removals die for real.
func (s *Store) SetRemovalObserver(obs func(e *Entry, reason RemoveReason, now time.Duration)) {
	s.onRemove = obs
}

// Insert caches data, evicting per policy if the store is full. The
// content is cloned so callers cannot mutate cached state. It returns the
// entry for metadata updates.
func (s *Store) Insert(data *ndn.Data, now, fetchDelay time.Duration) *Entry {
	key := data.Name.Key()
	if e := s.t.Get(data.Name); e != nil && e.CS() != nil {
		// Refresh payload and timing, keep counters: the router already
		// knows this content.
		existing := e.CS().(*Entry)
		existing.Data = data.Clone()
		existing.InsertedAt = now
		existing.FetchDelay = fetchDelay
		s.t.CSRefresh(e)
		s.emit(telemetry.EvCSInsert, key, now, "refresh")
		return existing
	}
	for s.capacity > 0 && s.t.LenCS() >= s.capacity {
		victim := s.t.CSVictim()
		if victim == nil {
			break
		}
		s.removeEntry(victim, now, ReasonCapacity)
		s.evictions.Inc()
	}
	entry := s.newEntry()
	entry.Data = data.Clone()
	entry.InsertedAt = now
	entry.FetchDelay = fetchDelay
	entry.Private = data.IsPrivate()
	if s.spans != nil {
		// Residency spans live outside any trace (zero context): one
		// entry serves many fetches across its cache lifetime.
		entry.residency, _ = s.spans.Begin(span.Context{}, span.KindResidency, s.node, key, int64(now))
	}
	// Probe again: an eviction can free the prefix-only entry the
	// refresh check found.
	s.t.AttachCS(s.t.Put(data.Name), entry)
	s.insertions.Inc()
	s.emit(telemetry.EvCSInsert, key, now, "new")
	return entry
}

// newEntry takes a recycled Entry from the pool or allocates one.
func (s *Store) newEntry() *Entry {
	if n := len(s.pool); n > 0 {
		entry := s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		return entry
	}
	return &Entry{}
}

// Exact returns the entry whose name equals name exactly, if fresh.
//
//ndnlint:hotpath — the lookup latency the cache-timing adversary measures; must not allocate
func (s *Store) Exact(name ndn.Name, now time.Duration) (*Entry, bool) {
	entry, found := s.lookupExact(name, now)
	s.countLookup(found)
	return entry, found
}

// ExactView is Exact for a zero-copy name view: the hit/miss decision the
// timing adversary measures, taken directly over the wire buffer without
// materializing an owned name. The view's precomputed rolling hash
// selects the probe start and full component comparison verifies
// membership.
//
//ndnlint:hotpath — the lookup latency the cache-timing adversary measures; must not allocate
func (s *Store) ExactView(v *ndn.NameView, now time.Duration) (*Entry, bool) {
	entry, found := s.lookupExactView(v, now)
	s.countLookup(found)
	return entry, found
}

// lookupExactView is ExactView without hit/miss accounting.
//
//ndnlint:hotpath — called per probe from ExactView; must not allocate
func (s *Store) lookupExactView(v *ndn.NameView, now time.Duration) (*Entry, bool) {
	e := s.t.GetView(v)
	if e == nil || e.CS() == nil {
		return nil, false
	}
	entry := e.CS().(*Entry)
	if entry.IsStale(now) {
		s.removeEntry(e, now, ReasonStale) //ndnlint:allow alloccheck — stale purge is off the steady-state hit path
		return nil, false
	}
	return entry, true
}

// lookupExact is Exact without hit/miss accounting, shared with Match so
// one logical lookup is counted exactly once.
//
//ndnlint:hotpath — called per probe from Exact and Match; must not allocate
func (s *Store) lookupExact(name ndn.Name, now time.Duration) (*Entry, bool) {
	e := s.t.Get(name)
	if e == nil || e.CS() == nil {
		return nil, false
	}
	entry := e.CS().(*Entry)
	if entry.IsStale(now) {
		s.removeEntry(e, now, ReasonStale) //ndnlint:allow alloccheck — stale purge is off the steady-state hit path
		return nil, false
	}
	return entry, true
}

// countLookup records one lookup outcome.
func (s *Store) countLookup(hit bool) {
	if hit {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
}

// Match finds a cached object satisfying the interest under NDN's
// longest-prefix rule (Section II footnote 2), skipping stale entries and
// honoring the unpredictable-suffix restriction. Among multiple matches
// the lexicographically smallest full name wins, which makes simulation
// runs deterministic.
//
//ndnlint:hotpath — the forwarder's CS check; must not allocate on the exact-hit or miss path
func (s *Store) Match(interest *ndn.Interest, now time.Duration) (*Entry, bool) {
	// Fast path: exact name.
	e := s.t.Get(interest.Name)
	if e != nil && e.CS() != nil {
		entry := e.CS().(*Entry)
		if !entry.IsStale(now) {
			s.countLookup(true)
			return entry, true
		}
		s.removeEntry(e, now, ReasonStale) //ndnlint:allow alloccheck — stale purge is off the steady-state hit path
		// The purge frees e unless names remain cached below it.
		e = s.t.Get(interest.Name)
	}
	// Every cached name under interest.Name lies in e's subtree, and
	// candidates come out of it in name order from the smallest: a
	// stale one is purged, a withheld one (an unpredictable suffix
	// answers only exact interests) is hidden from the tree until the
	// lookup ends, and the first fresh match wins. That is the winner
	// and the purge order of a scan over every cached name in name
	// order.
	var found *Entry
	for e != nil {
		c := s.t.CSMin(e)
		if c == nil {
			break
		}
		entry := c.CS().(*Entry)
		if entry.IsStale(now) {
			s.removeEntry(c, now, ReasonStale) //ndnlint:allow alloccheck — stale purge is off the steady-state hit path
		} else if entry.Data.Matches(interest) {
			found = entry
			break
		} else {
			s.t.HideCS(c)
			s.hidden = append(s.hidden, c) //ndnlint:allow alloccheck — grows once to the longest run of withheld names one lookup skips
		}
		// A purge or a hide can free e.
		e = s.t.Get(interest.Name)
	}
	for _, c := range s.hidden {
		s.t.UnhideCS(c) //ndnlint:allow alloccheck — re-creates only the prefix entries HideCS freed, from the arena free list
	}
	s.hidden = s.hidden[:0]
	s.countLookup(found != nil)
	return found, found != nil
}

// compareNames orders table entries by name.
func compareNames(a, b *pcct.Entry) int { return a.Name().Compare(b.Name()) }

// byName returns every CS entry in name order.
func (s *Store) byName() []*pcct.Entry {
	es := s.t.AppendCS(nil)
	slices.SortFunc(es, compareNames)
	return es
}

// Touch records a cache hit on the entry for eviction-recency purposes.
// Call it on every hit, including hits the privacy layer disguises as
// misses (Section VII: delayed responses still refresh the entry).
//
//ndnlint:hotpath — runs on every cache hit; must not allocate
func (s *Store) Touch(name ndn.Name) {
	if e := s.t.Get(name); e != nil && e.CS() != nil {
		s.t.CSAccess(e)
	}
}

// Remove deletes the entry for exactly name, reporting whether it
// existed. now is the virtual time of the management operation; it
// stamps the eviction trace event and closes the entry's residency span
// at a real timestamp instead of zero.
func (s *Store) Remove(name ndn.Name, now time.Duration) bool {
	e := s.t.Get(name)
	if e == nil || e.CS() == nil {
		return false
	}
	s.removeEntry(e, now, ReasonRemove)
	return true
}

// Clear empties the store at virtual time now, preserving
// configuration. It removes entries in name order, so the
// eviction-event order is deterministic.
func (s *Store) Clear(now time.Duration) {
	for _, e := range s.byName() {
		s.removeEntry(e, now, ReasonClear)
	}
}

// Names returns the full names of all cached objects in name order.
func (s *Store) Names() []ndn.Name {
	es := s.byName()
	out := make([]ndn.Name, len(es))
	for i, e := range es {
		out[i] = e.Name()
	}
	return out
}

// removeEntry detaches e's CS facet, releases the table entry, and runs
// the removal side effects in the same order the map-based store used:
// span close, trace event, eviction hook, removal observer.
func (s *Store) removeEntry(e *pcct.Entry, now time.Duration, reason RemoveReason) {
	entry := e.CS().(*Entry)
	key := entry.Data.Name.Key()
	s.t.DetachCS(e)
	s.t.ReleaseIfEmpty(e)
	if entry.residency != nil {
		s.spans.End(entry.residency, int64(now), string(reason))
		entry.residency = nil
	}
	s.emit(telemetry.EvCSEvict, key, now, string(reason))
	if s.onEvict != nil || s.onRemove != nil {
		// A hook may retain the entry (the tiered store demotes evicted
		// entries into its second tier); hooked entries are never
		// recycled.
		if s.onEvict != nil {
			s.onEvict(entry)
		}
		if s.onRemove != nil {
			s.onRemove(entry, reason, now)
		}
		return
	}
	if len(s.pool) < entryPoolCap {
		*entry = Entry{}
		s.pool = append(s.pool, entry)
	}
}

// emit sends one content-store trace event; one branch when disabled.
func (s *Store) emit(evType, name string, now time.Duration, action string) {
	if s.sink == nil {
		return
	}
	s.sink.Emit(telemetry.Event{
		At:     int64(now),
		Type:   evType,
		Node:   s.node,
		Name:   name,
		Action: action,
	})
}
