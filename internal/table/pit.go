package table

import (
	"sort"
	"time"

	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/pcct"
	"ndnprivacy/internal/telemetry"
)

// InsertOutcome describes what happened when an interest reached the PIT.
type InsertOutcome int

// PIT insertion outcomes.
const (
	// InsertedNew means no pending entry existed: the interest must be
	// forwarded upstream.
	InsertedNew InsertOutcome = iota + 1
	// Aggregated means a pending entry for the same name existed; only
	// the arrival face was recorded ("collapsing", Section II).
	Aggregated
	// DuplicateNonce means this exact interest (name+nonce) was already
	// seen — a loop or a retransmission duplicate — and must be dropped.
	DuplicateNonce
	// RejectedFull means the table is at capacity and cannot admit a
	// new pending name; the interest must be dropped.
	RejectedFull
)

// String implements fmt.Stringer.
func (o InsertOutcome) String() string {
	switch o {
	case InsertedNew:
		return "new"
	case Aggregated:
		return "aggregated"
	case DuplicateNonce:
		return "duplicate-nonce"
	case RejectedFull:
		return "rejected-full"
	default:
		return "unknown"
	}
}

// PIT is the Pending Interest Table, backed by the PIT facets of its own
// hash-indexed name table (internal/pcct). Time is supplied by the
// caller as a virtual-clock offset so the table works under the
// discrete-event simulator. PIT is not safe for concurrent use.
type PIT struct {
	t        *pcct.Table
	capacity int
	rejected uint64

	expired *telemetry.Counter
	sink    telemetry.Sink
	node    string

	// facesBuf is the reused result slice Satisfy hands out, valid
	// until the next Satisfy call. expireBuf is the reused Expire sweep
	// scratch.
	facesBuf  []FaceID
	expireBuf []*pcct.Entry
}

// NewPIT returns an empty, unbounded PIT.
func NewPIT() *PIT {
	return &PIT{t: pcct.New(pcct.PolicyLRU), expired: telemetry.NewCounter()}
}

// Instrument registers the table's expiry counter on the registry under
// a node label and attaches the trace sink for pit_expire events. Either
// argument may be nil.
func (p *PIT) Instrument(reg *telemetry.Registry, sink telemetry.Sink, node string) {
	if reg != nil {
		c := reg.Counter(telemetry.ID("ndn_pit_expired_total", "node", node))
		c.Add(p.expired.Value())
		p.expired = c
	}
	p.sink = sink
	p.node = node
}

// Expired returns the running count of entries removed after lapsing
// unanswered.
func (p *PIT) Expired() uint64 { return p.expired.Value() }

// expireEntry removes one lapsed entry and accounts for it.
func (p *PIT) expireEntry(e *pcct.Entry, now time.Duration) {
	key := e.Name().Key()
	p.t.DetachPIT(e)
	p.t.ReleaseIfEmpty(e)
	p.expired.Inc()
	if p.sink != nil {
		p.sink.Emit(telemetry.Event{ //ndnlint:allow alloccheck — trace emission is opt-in instrumentation
			At:   int64(now),
			Type: telemetry.EvPITExpire,
			Node: p.node,
			Name: key,
		})
	}
}

// SetCapacity bounds the number of distinct pending names; 0 restores
// unbounded. PIT state is attacker-fillable (one entry per distinct
// uncached name), so production routers bound it — interest flooding
// then degrades service for new names instead of exhausting memory.
func (p *PIT) SetCapacity(n int) {
	if n < 0 {
		n = 0
	}
	p.capacity = n
}

// Rejected returns how many interests were refused because the table was
// full.
func (p *PIT) Rejected() uint64 { return p.rejected }

// Len returns the number of distinct pending names.
func (p *PIT) Len() int { return p.t.LenPIT() }

// Insert records that interest arrived on face at virtual time now.
// Only admitting a new pending name may allocate (each allocation is
// waived below), so aggregation and duplicate-nonce handling stay
// allocation-free.
//
//ndnlint:hotpath — runs on every arriving Interest; admission allocations waived below
func (p *PIT) Insert(interest *ndn.Interest, face FaceID, now time.Duration) InsertOutcome {
	lifetime := interest.Lifetime
	if lifetime <= 0 {
		lifetime = ndn.DefaultInterestLifetime
	}
	e := p.t.Get(interest.Name)
	if e != nil && now >= e.PIT().Expires {
		// Stale entry: treat as absent.
		p.expireEntry(e, now)
		e = nil
	}
	if e == nil {
		if p.capacity > 0 && p.t.LenPIT() >= p.capacity {
			// Reclaim expired entries before refusing admission.
			p.Expire(now) //ndnlint:allow alloccheck — capacity reclaim is the slow path
			if p.t.LenPIT() >= p.capacity {
				p.rejected++
				return RejectedFull
			}
		}
		e = p.t.Put(interest.Name) //ndnlint:allow alloccheck — new-entry admission allocates by design
		pf := p.t.AttachPIT(e)
		pf.Expires = now + lifetime
		pf.Created = now
		pf.Privacy = interest.Privacy == ndn.PrivacyRequested
		pf.Trace = interest.TraceID
		pf.Span = interest.SpanID
		pf.Faces = append(pf.Faces, int64(face))      //ndnlint:allow alloccheck — new-entry admission; backing array reused across lifecycles
		pf.Nonces = append(pf.Nonces, interest.Nonce) //ndnlint:allow alloccheck — new-entry admission; backing array reused across lifecycles
		return InsertedNew
	}
	pf := e.PIT()
	for _, nonce := range pf.Nonces {
		if nonce == interest.Nonce {
			return DuplicateNonce
		}
	}
	pf.Nonces = append(pf.Nonces, interest.Nonce) //ndnlint:allow alloccheck — nonce list bounded by in-flight retransmissions
	recorded := false
	for _, f := range pf.Faces {
		if f == int64(face) {
			recorded = true
			break
		}
	}
	if !recorded {
		pf.Faces = append(pf.Faces, int64(face)) //ndnlint:allow alloccheck — face list bounded by the node's degree
	}
	if exp := now + lifetime; exp > pf.Expires {
		pf.Expires = exp
	}
	return Aggregated
}

// SatisfyResult describes the pending entries one Data packet consumed.
type SatisfyResult struct {
	// Faces is the union of downstream faces awaiting the content,
	// sorted ascending. The slice is reused by the next Satisfy call.
	Faces []FaceID
	// FirstCreated is the earliest creation time among consumed
	// entries; now − FirstCreated is the router's observed fetch delay.
	FirstCreated time.Duration
	// PrivacyRequested is true when the earliest-created consumed entry
	// was created by a privacy-bit interest.
	PrivacyRequested bool
	// Trace and Span are the earliest-created consumed entry's span
	// context; zero when that interest was untraced.
	Trace uint64
	Span  uint64
}

// Satisfy consumes every pending entry that the given content satisfies
// and reports the union of their downstream faces together with the
// timing/privacy metadata the forwarder needs for caching decisions;
// the bool is false when nothing matched. Matching follows the NDN
// rule: a pending interest for X is satisfied by content named X' iff X
// is a prefix of X' (honoring the unpredictable-suffix restriction via
// ndn.Data.Matches). Expired entries never match.
//
// Prefix candidates are probed by rolling hash (see
// ndn.MixComponentHash) and gated by the table's per-length facet
// counts, so the match path neither materializes prefix names nor
// probes lengths with nothing pending. The result's face slice is a
// reused buffer: sorted, deduplicated, valid until the next Satisfy
// call — steady-state satisfaction allocates nothing.
//
//ndnlint:hotpath — runs on every arriving Data; must not allocate in steady state
func (p *PIT) Satisfy(data *ndn.Data, now time.Duration) (SatisfyResult, bool) {
	p.facesBuf = p.facesBuf[:0]
	var res SatisfyResult
	matched := false
	// Candidate entries are exactly the prefixes of the data name. The
	// rolling hash probes every prefix length without materializing a
	// prefix name: folding component k takes the k-prefix hash to the
	// (k+1)-prefix hash, matching what Insert cached via Name.Hash.
	h := ndn.NameHashSeed()
	for k := 0; ; k++ {
		// Names are unique, so at most one entry is the exact k-prefix
		// of the data name.
		if p.t.PITLenAt(k) > 0 {
			if hit := p.t.GetPrefix(h, k, data.Name); hit != nil {
				pf := hit.PIT()
				switch {
				case now >= pf.Expires:
					p.expireEntry(hit, now)
				case !data.MatchesName(hit.Name()):
					// Unpredictable-suffix restriction: a shorter pending
					// prefix must not consume /…/<rand> content.
				default:
					if !matched || pf.Created < res.FirstCreated {
						res.FirstCreated = pf.Created
						res.PrivacyRequested = pf.Privacy
						res.Trace = pf.Trace
						res.Span = pf.Span
					}
					matched = true
					for _, f := range pf.Faces {
						p.addFace(FaceID(f))
					}
					p.t.DetachPIT(hit)
					p.t.ReleaseIfEmpty(hit)
				}
			}
		}
		if k == data.Name.Len() {
			break
		}
		h = ndn.MixComponentHash(h, data.Name.ComponentRef(k))
	}
	if !matched {
		return SatisfyResult{}, false
	}
	// Sort so downstream sends happen in a seed-stable order. Insertion
	// sort: face lists are a handful of elements and the buffer must not
	// allocate.
	for i := 1; i < len(p.facesBuf); i++ {
		f := p.facesBuf[i]
		j := i - 1
		for j >= 0 && p.facesBuf[j] > f {
			p.facesBuf[j+1] = p.facesBuf[j]
			j--
		}
		p.facesBuf[j+1] = f
	}
	res.Faces = p.facesBuf
	return res, true
}

// addFace records one downstream face in the reused result buffer,
// deduplicating across consumed entries.
//
//ndnlint:hotpath — per-face step of Data satisfaction; must not allocate
func (p *PIT) addFace(f FaceID) {
	for _, have := range p.facesBuf {
		if have == f {
			return
		}
	}
	if len(p.facesBuf) == cap(p.facesBuf) {
		p.growFaceBuf()
	}
	n := len(p.facesBuf)
	p.facesBuf = p.facesBuf[:n+1]
	p.facesBuf[n] = f
}

// growFaceBuf extends the result buffer off the hot path; after the
// first few Data arrivals the capacity covers the node's degree and
// steady state never returns here.
func (p *PIT) growFaceBuf() {
	nc := 2 * cap(p.facesBuf)
	if nc == 0 {
		nc = 8
	}
	faces := make([]FaceID, len(p.facesBuf), nc) //ndnlint:allow alloccheck — amortized one-time buffer growth
	copy(faces, p.facesBuf)
	p.facesBuf = faces
}

// HasPending reports whether an unexpired entry exists for exactly name.
//
//ndnlint:hotpath — loop-detection probe on the Interest path
func (p *PIT) HasPending(name ndn.Name, now time.Duration) bool {
	e := p.t.Get(name)
	return e != nil && e.PITActive() && now < e.PIT().Expires
}

// HasPendingView is HasPending for a zero-copy name view: the pending
// probe taken directly over the wire buffer, keyed by the view's
// precomputed hash and verified by full component comparison.
//
//ndnlint:hotpath — loop-detection probe on the wire Interest path; must not allocate
func (p *PIT) HasPendingView(v *ndn.NameView, now time.Duration) bool {
	e := p.t.GetView(v)
	return e != nil && e.PITActive() && now < e.PIT().Expires
}

// Expire removes every entry whose lifetime has passed and returns the
// number removed. Lapsed entries are collected and sorted by name key
// before removal so the pit_expire trace events come out in a
// seed-stable order.
func (p *PIT) Expire(now time.Duration) int {
	p.expireBuf = p.expireBuf[:0]
	p.t.ForEachPIT(func(e *pcct.Entry) {
		if now >= e.PIT().Expires {
			p.expireBuf = append(p.expireBuf, e)
		}
	})
	sort.Slice(p.expireBuf, func(i, j int) bool {
		return p.expireBuf[i].Name().Key() < p.expireBuf[j].Name().Key()
	})
	removed := len(p.expireBuf)
	for i, e := range p.expireBuf {
		p.expireEntry(e, now)
		p.expireBuf[i] = nil
	}
	return removed
}
