// Package tiered implements a two-tier Content Store behind the
// cache.ContentStore contract: a sharded, hash-indexed RAM front of
// bounded object capacity over a second tier sized for millions of
// objects. Content is admitted to the RAM front (or straight to the
// second tier, under AdmitToSecond), demoted to the second tier when
// the RAM front evicts it, and promoted back on a second-tier hit.
//
// The second tier is pluggable (SecondTier): DiskModel is the
// simulator's deterministic virtual-time disk (seekless service latency
// plus a single-queue device model), and FileTier is a real append-log
// file store for cmd/ndnd. Both make tier placement observable through
// cache.TieredContentStore.LastLookup — the recency side channel the
// attack and audit layers measure: an entry's tier is a function of how
// recently it was used, and the RAM/disk/miss latency classes hand the
// paper's timing adversary a three-way observable instead of a binary
// one.
//
// Like the flat store, a tiered Store is single-threaded: every call
// happens on the owning node's executor.
package tiered

import (
	"fmt"
	"sort"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// SecondTier is the storage contract of the large second tier. Keys are
// full-name keys (ndn.Name.Key). Implementations own entry storage but
// not entry lifecycle: eviction events, spans, and hooks stay with the
// tiered Store, which is why Put and Remove hand entries back.
type SecondTier interface {
	// Name names the backend for diagnostics ("disk-model", "file").
	Name() string
	// Put stores (or refreshes) the entry at virtual time now. When the
	// tier is at capacity it evicts oldest-written entries and returns
	// them so the owner can finish their lifecycle.
	Put(e *cache.Entry, now time.Duration) ([]*cache.Entry, error)
	// Peek returns the stored entry and the modeled service cost of
	// reading it at virtual time now, without removing it. Deterministic
	// backends advance their device-queue state; real backends report
	// zero cost (their I/O time is physically observable).
	Peek(key string, now time.Duration) (*cache.Entry, time.Duration, bool)
	// Remove deletes the entry without modeling a read, returning it for
	// lifecycle bookkeeping.
	Remove(key string) (*cache.Entry, bool)
	// Len returns the number of stored objects; Capacity the configured
	// bound (0 = unlimited).
	Len() int
	Capacity() int
	// Close releases backend resources (files); harmless on models.
	Close() error
}

// WritePolicy selects when demotable content reaches the second tier.
type WritePolicy uint8

const (
	// WriteBack (default): content reaches the second tier only when the
	// RAM front evicts it; a promotion removes the second-tier copy.
	WriteBack WritePolicy = iota
	// WriteThrough: every admission also writes the second tier, and
	// promotions keep the second-tier copy, so RAM eviction of a
	// written-through entry is free.
	WriteThrough
)

// Admission selects where newly fetched content lands.
type Admission uint8

const (
	// AdmitToRAM (default): new content enters the RAM front; the
	// second tier fills by demotion.
	AdmitToRAM Admission = iota
	// AdmitToSecond: new content enters the second tier directly and
	// only promotions (second-tier hits) fill the RAM front — a
	// scan-resistant admission policy. With a serializing backend
	// (FileTier), entry metadata updates made after Insert returns are
	// not persisted.
	AdmitToSecond
)

// Config assembles a tiered store.
type Config struct {
	// RAMCapacity is the RAM front's total object capacity, split evenly
	// across shards (each shard holds at least one object). Required.
	RAMCapacity int
	// Shards is the number of RAM-front shards, a power of two;
	// defaults to 4. Shard selection is by name hash, so the exact
	// lookup path stays allocation-free.
	Shards int
	// Policy builds each shard's eviction policy; defaults to cache.NewLRU.
	Policy func() cache.Policy
	// Second is the second-tier backend. Required.
	Second SecondTier
	// Write and Admit select the movement policies.
	Write WritePolicy
	Admit Admission
}

// Store is the two-tier Content Store. It implements
// cache.TieredContentStore.
type Store struct {
	shards []*cache.Store
	mask   uint64
	second SecondTier
	write  WritePolicy
	admit  Admission
	ramCap int

	// resident maps full-name keys to names for every object the store
	// holds in either tier — the membership ground truth Len, Names,
	// Clear, and residency-span bookkeeping run on. Iterated only via
	// the sorted Names walk.
	resident map[string]ndn.Name
	// secondNames buckets second-tier names by hash so the zero-copy
	// view lookup can detect a second-tier entry without materializing
	// a key (mirrors the flat store's byHash).
	secondNames map[uint64][]ndn.Name

	// last is the most recent lookup's tier placement, reported through
	// LastLookup. Single-threaded executors make this race-free.
	last cache.TierInfo

	onEvict func(*cache.Entry)

	insertions *telemetry.Counter
	evictions  *telemetry.Counter
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	ramHits    *telemetry.Counter
	diskHits   *telemetry.Counter
	promotions *telemetry.Counter
	demotions  *telemetry.Counter
	tierWrites *telemetry.Counter
	sink       telemetry.Sink
	node       string
	spans      *span.Tracer
	residency  map[string]*span.Record
}

var _ cache.TieredContentStore = (*Store)(nil)

// New builds a tiered store.
func New(cfg Config) (*Store, error) {
	if cfg.RAMCapacity <= 0 {
		return nil, fmt.Errorf("tiered: RAM front needs a positive capacity, got %d", cfg.RAMCapacity)
	}
	if cfg.Second == nil {
		return nil, fmt.Errorf("tiered: second tier required")
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = 4
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("tiered: shard count %d is not a power of two", shards)
	}
	// A shard holds at least one object, so more shards than capacity
	// would silently inflate the RAM front past RAMCapacity; clamp to
	// the largest power of two the capacity covers.
	for shards > cfg.RAMCapacity {
		shards /= 2
	}
	policy := cfg.Policy
	if policy == nil {
		policy = func() cache.Policy { return cache.NewLRU() }
	}
	perShard := cfg.RAMCapacity / shards
	if perShard < 1 {
		perShard = 1
	}
	s := &Store{
		shards:      make([]*cache.Store, shards),
		mask:        uint64(shards - 1),
		second:      cfg.Second,
		write:       cfg.Write,
		admit:       cfg.Admit,
		ramCap:      perShard * shards,
		resident:    make(map[string]ndn.Name),
		secondNames: make(map[uint64][]ndn.Name),
		insertions:  telemetry.NewCounter(),
		evictions:   telemetry.NewCounter(),
		hits:        telemetry.NewCounter(),
		misses:      telemetry.NewCounter(),
		ramHits:     telemetry.NewCounter(),
		diskHits:    telemetry.NewCounter(),
		promotions:  telemetry.NewCounter(),
		demotions:   telemetry.NewCounter(),
		tierWrites:  telemetry.NewCounter(),
		residency:   make(map[string]*span.Record),
	}
	for i := range s.shards {
		sh, err := cache.NewStore(perShard, policy())
		if err != nil {
			return nil, err
		}
		sh.SetRemovalObserver(s.onShardRemove)
		s.shards[i] = sh
	}
	return s, nil
}

// MustNew is New that panics on error, for tests with constant configs.
func MustNew(cfg Config) *Store {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// shardFor selects the RAM-front shard owning name.
//
//ndnlint:hotpath — shard selection sits on the exact-lookup path; must not allocate
func (s *Store) shardFor(name ndn.Name) *cache.Store {
	return s.shards[name.Hash()&s.mask]
}

// LastLookup reports the serving tier of the most recent lookup.
func (s *Store) LastLookup() cache.TierInfo { return s.last }

// Len returns the number of distinct cached objects across both tiers.
func (s *Store) Len() int { return len(s.resident) }

// RAMLen returns the number of objects resident in the RAM front.
func (s *Store) RAMLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// SecondLen returns the number of objects in the second tier.
func (s *Store) SecondLen() int { return s.second.Len() }

// Capacity returns the total object capacity: RAM front plus second
// tier, or 0 (unlimited) when the second tier is unbounded.
func (s *Store) Capacity() int {
	if s.second.Capacity() == 0 {
		return 0
	}
	return s.ramCap + s.second.Capacity()
}

// RAMCapacity returns the RAM front's effective capacity (per-shard
// rounding may lower the configured value).
func (s *Store) RAMCapacity() int { return s.ramCap }

// PolicyName names the composite policy for diagnostics.
func (s *Store) PolicyName() string {
	return fmt.Sprintf("tiered(%s+%s)", s.shards[0].PolicyName(), s.second.Name())
}

// Counter accessors mirror the flat store's.

// Insertions returns the running count of inserted objects.
func (s *Store) Insertions() uint64 { return s.insertions.Value() }

// Evictions returns the running count of objects evicted from the
// store entirely (second-tier overflow); inter-tier movement and
// staleness purges don't count, matching the flat store's accounting.
func (s *Store) Evictions() uint64 { return s.evictions.Value() }

// Hits returns the running count of lookups served from either tier.
func (s *Store) Hits() uint64 { return s.hits.Value() }

// Misses returns the running count of lookups that missed both tiers.
func (s *Store) Misses() uint64 { return s.misses.Value() }

// RAMHits and DiskHits split Hits by serving tier; Promotions and
// Demotions count inter-tier movement.
func (s *Store) RAMHits() uint64    { return s.ramHits.Value() }
func (s *Store) DiskHits() uint64   { return s.diskHits.Value() }
func (s *Store) Promotions() uint64 { return s.promotions.Value() }
func (s *Store) Demotions() uint64  { return s.demotions.Value() }

// Close releases the second-tier backend (a no-op for the in-memory
// disk model; the file tier closes its log). The RAM front needs no
// teardown.
func (s *Store) Close() error { return s.second.Close() }

// SetEvictionHook registers a callback invoked when an entry leaves the
// store entirely — never on demotion or promotion, which keep the
// content cached.
func (s *Store) SetEvictionHook(hook func(*cache.Entry)) { s.onEvict = hook }

// Instrument moves the store's counters onto the registry under
// node-labeled identifiers and attaches the trace sink. The RAM shards
// are deliberately not instrumented: the tiered store accounts one
// logical lookup/insert/evict stream, so shard-internal movement never
// double-counts.
func (s *Store) Instrument(reg *telemetry.Registry, sink telemetry.Sink, node string) {
	if reg != nil {
		s.insertions = adopt(reg, "ndn_cs_insertions_total", node, s.insertions)
		s.evictions = adopt(reg, "ndn_cs_evictions_total", node, s.evictions)
		s.hits = adopt(reg, "ndn_cs_hits_total", node, s.hits)
		s.misses = adopt(reg, "ndn_cs_misses_total", node, s.misses)
		s.ramHits = adopt(reg, "ndn_cs_ram_hits_total", node, s.ramHits)
		s.diskHits = adopt(reg, "ndn_cs_disk_hits_total", node, s.diskHits)
		s.promotions = adopt(reg, "ndn_cs_promotions_total", node, s.promotions)
		s.demotions = adopt(reg, "ndn_cs_demotions_total", node, s.demotions)
		s.tierWrites = adopt(reg, "ndn_cs_tier2_writes_total", node, s.tierWrites)
	}
	s.sink = sink
	s.node = node
}

func adopt(reg *telemetry.Registry, name, node string, old *telemetry.Counter) *telemetry.Counter {
	c := reg.Counter(telemetry.ID(name, "node", node))
	if c != old {
		c.Add(old.Value())
	}
	return c
}

// InstrumentSpans attaches a span tracer. Residency spans (one per
// object, admission → final eviction) and tier-movement point spans are
// recorded by the tiered store itself; shards stay uninstrumented so
// demotions don't close residency early.
func (s *Store) InstrumentSpans(tr *span.Tracer, node string) {
	s.spans = tr
	if node != "" {
		s.node = node
	}
}

// FinishSpans closes every still-open residency span at virtual time
// now with action "resident", walking names in sorted order for
// deterministic output.
func (s *Store) FinishSpans(now time.Duration) {
	if s.spans == nil {
		return
	}
	for _, name := range s.Names() {
		key := name.Key()
		if r, open := s.residency[key]; open {
			s.spans.End(r, int64(now), "resident")
			delete(s.residency, key)
		}
	}
}

// Names returns the full names of all cached objects (both tiers) in
// sorted key order.
func (s *Store) Names() []ndn.Name {
	keys := make([]string, 0, len(s.resident))
	for key := range s.resident {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	names := make([]ndn.Name, len(keys))
	for i, key := range keys {
		names[i] = s.resident[key]
	}
	return names
}

// Insert caches data at virtual time now. Under AdmitToRAM the entry
// lands in the RAM front (possibly demoting a victim); under
// AdmitToSecond it goes straight to the second tier.
func (s *Store) Insert(data *ndn.Data, now, fetchDelay time.Duration) *cache.Entry {
	key := data.Name.Key()
	_, existed := s.resident[key]
	var entry *cache.Entry
	switch s.admit {
	case AdmitToSecond:
		if _, inRAM := s.shardFor(data.Name).Exact(data.Name, now); inRAM {
			// RAM-resident content refreshes in place; writing only the
			// second tier would leave a divergent stale copy in RAM.
			entry = s.shardFor(data.Name).Insert(data, now, fetchDelay)
			if s.write == WriteThrough {
				s.putSecond(entry, now)
			}
			break
		}
		entry = &cache.Entry{
			Data:       data.Clone(),
			InsertedAt: now,
			FetchDelay: fetchDelay,
			Private:    data.IsPrivate(),
		}
		s.putSecond(entry, now)
	default: // AdmitToRAM
		if existed && s.write == WriteBack {
			// The RAM copy becomes authoritative again; drop the demoted
			// duplicate so a later demotion can't resurrect stale payload.
			if _, had := s.second.Remove(key); had {
				s.dropSecondName(data.Name)
			}
		}
		entry = s.shardFor(data.Name).Insert(data, now, fetchDelay)
		if s.write == WriteThrough {
			s.putSecond(entry, now)
		}
	}
	if existed {
		s.emit(telemetry.EvCSInsert, key, now, "refresh", 0)
	} else {
		s.resident[key] = data.Name
		s.insertions.Inc()
		s.emit(telemetry.EvCSInsert, key, now, "new", 0)
		if s.spans != nil {
			s.residency[key], _ = s.spans.Begin(span.Context{}, span.KindResidency, s.node, key, int64(now))
		}
	}
	return entry
}

// putSecond writes entry to the second tier and finishes the lifecycle
// of any overflow victims the write evicted.
func (s *Store) putSecond(entry *cache.Entry, now time.Duration) {
	key := entry.Data.Name.Key()
	evicted, err := s.second.Put(entry, now)
	if err != nil {
		// A failed second-tier write loses the entry (the RAM front has
		// already let go of it on the demotion path); finish its
		// lifecycle rather than leak membership.
		s.finishRemoval(entry, cache.ReasonCapacity, now)
		return
	}
	s.tierWrites.Inc()
	s.addSecondName(entry.Data.Name)
	for _, victim := range evicted {
		if victim.Data.Name.Key() == key {
			continue // refresh of an existing slot, not an eviction
		}
		s.dropSecondName(victim.Data.Name)
		s.evictions.Inc()
		s.finishRemoval(victim, cache.ReasonCapacity, now)
	}
}

// onShardRemove translates RAM-front removals: capacity evictions
// become demotions; staleness purges and explicit removals finish the
// entry's lifecycle.
func (s *Store) onShardRemove(e *cache.Entry, reason cache.RemoveReason, now time.Duration) {
	switch reason {
	case cache.ReasonCapacity:
		s.demote(e, now)
	case cache.ReasonStale:
		// Stale content dies in every tier.
		if _, had := s.second.Remove(e.Data.Name.Key()); had {
			s.dropSecondName(e.Data.Name)
		}
		s.finishRemoval(e, reason, now)
	default: // ReasonRemove, ReasonClear — driven by our own Remove/Clear
		s.finishRemoval(e, reason, now)
	}
}

// demote moves a RAM-front eviction victim down to the second tier.
func (s *Store) demote(e *cache.Entry, now time.Duration) {
	if e.IsStale(now) {
		if _, had := s.second.Remove(e.Data.Name.Key()); had {
			s.dropSecondName(e.Data.Name)
		}
		s.finishRemoval(e, cache.ReasonStale, now)
		return
	}
	s.demotions.Inc()
	s.emit(telemetry.EvCSDemote, e.Data.Name.Key(), now, "demote", 0)
	if s.spans != nil {
		s.spans.Span(span.Context{}, span.KindTier, s.node, e.Data.Name.Key(), "demote", int64(now), int64(now), 0)
	}
	s.putSecond(e, now)
}

// promote moves a second-tier entry into the RAM front after a hit,
// preserving the metadata the cache-management algorithms track. cost
// is the modeled read latency, recorded on the promote trace event.
func (s *Store) promote(e *cache.Entry, now, cost time.Duration) *cache.Entry {
	key := e.Data.Name.Key()
	s.promotions.Inc()
	s.emit(telemetry.EvCSPromote, key, now, "promote", cost)
	if s.spans != nil {
		s.spans.Span(span.Context{}, span.KindTier, s.node, key, "promote", int64(now), int64(now), uint64(cost))
	}
	if s.write == WriteBack {
		if _, had := s.second.Remove(key); had {
			s.dropSecondName(e.Data.Name)
		}
	}
	promoted := s.shardFor(e.Data.Name).Insert(e.Data, now, e.FetchDelay)
	// The shard's Insert built a fresh entry; restore the surviving
	// metadata, including the original insertion time so the freshness
	// clock keeps running.
	promoted.InsertedAt = e.InsertedAt
	promoted.ForwardCount = e.ForwardCount
	promoted.Private = e.Private
	promoted.NonPrivateTrigger = e.NonPrivateTrigger
	promoted.Counter = e.Counter
	promoted.Threshold = e.Threshold
	promoted.ThresholdSet = e.ThresholdSet
	promoted.GroupKey = e.GroupKey
	return promoted
}

// secondLookup is the second-tier exact lookup shared by Match, Exact
// and ExactView: peek, purge stale, verify against the interest when
// given, and promote on hit (unless promotion is disabled for the
// caller — the pure view probe).
func (s *Store) secondLookup(name ndn.Name, interest *ndn.Interest, now time.Duration, promote bool) (*cache.Entry, bool) {
	key := name.Key()
	e, cost, found := s.second.Peek(key, now)
	if !found {
		return nil, false
	}
	if e.IsStale(now) {
		if _, had := s.second.Remove(key); had {
			s.dropSecondName(e.Data.Name)
		}
		s.finishRemoval(e, cache.ReasonStale, now)
		return nil, false
	}
	if interest != nil && !e.Data.Matches(interest) {
		return nil, false
	}
	s.last = cache.TierInfo{Tier: cache.TierSecond, Cost: cost}
	if promote {
		e = s.promote(e, now, cost)
	}
	return e, true
}

// Match finds a cached object satisfying the interest: exact fast path
// through the owning shard, then the RAM front's name trees (the
// lexicographically smallest full name wins across shards, keeping runs
// deterministic), then an exact-only second-tier lookup — like
// production disk tiers, the second tier indexes full names only, so
// prefix interests can only be answered from RAM.
func (s *Store) Match(interest *ndn.Interest, now time.Duration) (*cache.Entry, bool) {
	if e, found := s.shardFor(interest.Name).Exact(interest.Name, now); found {
		s.countHit(cache.TierInfo{Tier: cache.TierRAM})
		return e, true
	}
	var best *cache.Entry
	for _, sh := range s.shards {
		e, found := sh.Match(interest, now)
		if !found {
			continue
		}
		if best == nil || e.Data.Name.Key() < best.Data.Name.Key() {
			best = e
		}
	}
	if best != nil {
		s.countHit(cache.TierInfo{Tier: cache.TierRAM})
		return best, true
	}
	if e, found := s.secondLookup(interest.Name, interest, now, true); found {
		s.countHit(s.last)
		return e, true
	}
	s.countMiss()
	return nil, false
}

// Exact returns the entry whose name equals name exactly, if fresh in
// either tier. A second-tier hit promotes the entry into the RAM front.
//
//ndnlint:hotpath — RAM-front exact lookup; the RAM path must not allocate
func (s *Store) Exact(name ndn.Name, now time.Duration) (*cache.Entry, bool) {
	if e, found := s.shardFor(name).Exact(name, now); found {
		s.countHit(cache.TierInfo{Tier: cache.TierRAM})
		return e, true
	}
	if e, found := s.secondLookup(name, nil, now, true); found { //ndnlint:allow alloccheck — second-tier read is off the RAM-front hit path
		s.countHit(s.last)
		return e, true
	}
	s.countMiss()
	return nil, false
}

// ExactView is Exact over a zero-copy name view — the wire-probe path.
// The RAM front resolves it shard-locally without materializing a name;
// a RAM miss consults the second-tier name index by hash. View probes
// are pure: a second-tier hit reports tier and cost but does not
// promote, so probing cannot reshape tier placement.
//
//ndnlint:hotpath — the lookup latency the cache-timing adversary measures; the RAM path must not allocate
func (s *Store) ExactView(v *ndn.NameView, now time.Duration) (*cache.Entry, bool) {
	if e, found := s.shards[v.Hash()&s.mask].ExactView(v, now); found {
		s.countHit(cache.TierInfo{Tier: cache.TierRAM})
		return e, true
	}
	for _, name := range s.secondNames[v.Hash()] {
		if !v.EqualName(name) {
			continue
		}
		if e, found := s.secondLookup(name, nil, now, false); found { //ndnlint:allow alloccheck — second-tier read is off the RAM-front hit path
			s.countHit(s.last)
			return e, true
		}
		break
	}
	s.countMiss()
	return nil, false
}

// countHit records one hit lookup and its serving tier.
//
//ndnlint:hotpath — runs on every lookup
func (s *Store) countHit(info cache.TierInfo) {
	s.last = info
	s.hits.Inc()
	if info.Tier == cache.TierSecond {
		s.diskHits.Inc()
	} else {
		s.ramHits.Inc()
	}
}

// countMiss records one lookup that missed both tiers.
//
//ndnlint:hotpath — runs on every lookup
func (s *Store) countMiss() {
	s.last = cache.TierInfo{}
	s.misses.Inc()
}

// Touch records a cache hit for eviction recency. Only the RAM front
// tracks recency; touching disk-resident content is a no-op (promotion
// is what refreshes its recency).
//
//ndnlint:hotpath — runs on every cache hit
func (s *Store) Touch(name ndn.Name) {
	s.shardFor(name).Touch(name)
}

// Remove deletes the entry for exactly name from both tiers at virtual
// time now, reporting whether it existed.
func (s *Store) Remove(name ndn.Name, now time.Duration) bool {
	return s.removeOne(name, now)
}

// Clear empties both tiers at virtual time now, walking names in sorted
// order so the eviction-event stream is deterministic.
func (s *Store) Clear(now time.Duration) {
	for _, name := range s.Names() {
		s.removeOne(name, now)
	}
}

func (s *Store) removeOne(name ndn.Name, now time.Duration) bool {
	key := name.Key()
	if _, found := s.resident[key]; !found {
		return false
	}
	// The shard observer (ReasonRemove) finishes the lifecycle for a
	// RAM-resident entry; the explicit path below covers the second tier
	// (sole copy, or write-through duplicate — finishRemoval no-ops on
	// the duplicate).
	s.shardFor(name).Remove(name, now)
	if e, had := s.second.Remove(key); had {
		s.dropSecondName(name)
		s.finishRemoval(e, cache.ReasonRemove, now)
	}
	return true
}

// finishRemoval ends an object's store lifecycle: membership, residency
// span, eviction event, and hook. Idempotent per key, so write-through
// duplicates finish exactly once.
func (s *Store) finishRemoval(e *cache.Entry, reason cache.RemoveReason, now time.Duration) {
	key := e.Data.Name.Key()
	if _, found := s.resident[key]; !found {
		return
	}
	delete(s.resident, key)
	if r, open := s.residency[key]; open {
		s.spans.End(r, int64(now), string(reason))
		delete(s.residency, key)
	}
	s.emit(telemetry.EvCSEvict, key, now, string(reason), 0)
	if s.onEvict != nil {
		s.onEvict(e)
	}
}

// addSecondName indexes a second-tier name by hash for view lookups.
func (s *Store) addSecondName(name ndn.Name) {
	h := name.Hash()
	for _, existing := range s.secondNames[h] {
		if existing.Key() == name.Key() {
			return
		}
	}
	s.secondNames[h] = append(s.secondNames[h], name)
}

// dropSecondName removes a name from the hash index (swap-with-last;
// lookups verify full equality, so bucket order is irrelevant).
func (s *Store) dropSecondName(name ndn.Name) {
	h := name.Hash()
	bucket := s.secondNames[h]
	for i, existing := range bucket {
		if existing.Key() != name.Key() {
			continue
		}
		bucket[i] = bucket[len(bucket)-1]
		bucket = bucket[:len(bucket)-1]
		break
	}
	if len(bucket) == 0 {
		delete(s.secondNames, h)
	} else {
		s.secondNames[h] = bucket
	}
}

// emit sends one content-store trace event; one branch when disabled.
func (s *Store) emit(evType, name string, now time.Duration, action string, cost time.Duration) {
	if s.sink == nil {
		return
	}
	s.sink.Emit(telemetry.Event{
		At:      int64(now),
		Type:    evType,
		Node:    s.node,
		Name:    name,
		Action:  action,
		DelayNS: int64(cost),
	})
}
