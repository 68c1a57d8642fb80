// Package pcct implements the hash-indexed name table behind the
// Content Store and the PIT: a single open-addressing hash table, keyed
// by the rolling-FNV name hashes the zero-copy NameView layer
// precomputes, whose entries carry a Content Store facet (payload +
// intrusive eviction-policy links) and a PIT facet (downstream faces,
// nonces, expiry). The layout follows ndn-dpdk's PCCT (csrc/pcct), but
// a forwarder runs its CS and its PIT on two separate tables, each
// using one facet: the interest pipeline is the plain CS → PIT → FIB
// sequence of the paper's Section II.
//
// The CS facets also form a name tree inside the same hash table, in
// the manner of NFD's NameTree: every proper prefix of a cached name is
// a table entry, linked to its parent through intrusive links, and
// counts the CS facets below it. Prefix entries that carry no facet
// exist only for the tree and are released as soon as nothing is
// cached below them. Each entry keeps its children in an intrusive
// pairing heap ordered by their last component, so the smallest CS
// name below any entry (by ndn.Name.Compare) is found by following
// heap roots down: the first candidate of the Content Store's prefix
// match. A new child waits in an unsorted list until a lookup needs
// the order, so attaching or detaching a CS facet only walks the
// ancestors, and the heap work (O(log children) amortized per child)
// falls on prefix lookups. So CS insert, evict and prefix lookup cost
// O(name depth) whatever the table size.
//
// Entries live in a chunked arena with a free list, so steady-state
// insert/remove churn allocates nothing and entry pointers stay stable
// across growth.
//
// Nothing in this package iterates a Go map — bucket probing, the
// policy lists and the name tree are all slice- or link-backed — so
// every enumeration order is a pure function of the operation history,
// which is what the simulator's byte-identity determinism tests demand.
//
// The table is not safe for concurrent use; each simulated node runs
// single-threaded on its executor.
package pcct

import (
	"bytes"
	"time"

	"ndnprivacy/internal/ndn"
)

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	// nilID terminates intrusive lists and marks empty bucket slots.
	nilID = int32(-1)
	// minBuckets is the initial bucket-array size (power of two).
	minBuckets = 64
)

// PITFacet is the pending-interest side of a composite entry. Slices
// are retained (length-reset) across entry lifecycles, so steady-state
// PIT churn reuses their backing arrays instead of reallocating.
type PITFacet struct {
	// Active reports whether the facet is live; an entry can exist with
	// only a CS facet.
	Active bool
	// Privacy records whether the entry-creating interest carried the
	// consumer privacy bit.
	Privacy bool
	// Expires and Created are virtual times: when the entry lapses and
	// when the entry-creating interest arrived.
	Expires time.Duration
	Created time.Duration
	// Trace and Span carry the entry-creating interest's span context.
	Trace uint64
	Span  uint64
	// Faces are the downstream face IDs awaiting the content; Nonces
	// deduplicate looped or retransmitted interests.
	Faces  []int64
	Nonces []uint64
}

// Entry is one composite-table entry: a unique name plus up to two
// facets. Fields are managed through Table methods so the policy lists,
// the name tree and the facet counts stay consistent.
type Entry struct {
	hash uint64
	name ndn.Name
	id   int32
	live bool
	// inTree reports whether the CS facet is counted in the name tree;
	// HideCS takes it out for the length of one prefix match.
	inTree bool

	// CS facet: payload plus intrusive policy-list links. csNext doubles
	// as the free-list link while the entry is released.
	csData         any
	csPrev, csNext int32
	// lfuB is the owning LFU frequency bucket, nilID outside LFU mode.
	lfuB int32

	// Name tree. An entry is in the tree while below > 0: parent is the
	// entry one component shorter (nilID for the empty name), kids is
	// the root of its children's pairing heap and pend heads the
	// children not yet melded into it.
	parent, kids, pend int32
	// Sibling links: hChild heads the entry's heap children, threaded
	// through hNext; hPrev is the previous sibling, or the heap parent
	// for a leftmost heap child (nilID at the head of a pend list). A
	// pending child has no heap children.
	hChild, hNext, hPrev int32
	// below counts the tree's CS facets in this subtree, this entry's
	// included.
	below int32

	pit PITFacet
}

// Name returns the entry's name.
func (e *Entry) Name() ndn.Name { return e.name }

// Hash returns the entry's precomputed rolling name hash.
func (e *Entry) Hash() uint64 { return e.hash }

// CS returns the Content Store payload, nil when the CS facet is
// absent.
//
//ndnlint:hotpath — facet check on every lookup; must not allocate
func (e *Entry) CS() any { return e.csData }

// PITActive reports whether the PIT facet is live.
//
//ndnlint:hotpath — facet check on every lookup; must not allocate
func (e *Entry) PITActive() bool { return e.pit.Active }

// PIT returns the PIT facet for in-place mutation. Callers must have
// attached it via AttachPIT.
func (e *Entry) PIT() *PITFacet { return &e.pit }

// Table is the composite table. See the package comment for the
// design; a Content Store uses its CS facets, a PIT its PIT facets.
type Table struct {
	buckets []int32
	mask    uint32
	used    int

	chunks [][]Entry
	next   int32
	free   int32

	kind PolicyKind
	// csHead/csTail anchor the LRU/FIFO recency list (front = most
	// recent / newest).
	csHead, csTail int32
	// lfu is the frequency-bucket arena for the LFU policy; lfuHead is
	// the lowest-frequency bucket.
	lfu     []lfuBucket
	lfuFree int32
	lfuHead int32

	nCS, nPIT int
	// pitLens[k] counts active PIT facets whose name has k components,
	// so Data satisfaction can skip prefix lengths with no pending
	// entries without probing.
	pitLens []int32
}

// New returns an empty table whose CS facet uses the given eviction
// policy.
func New(kind PolicyKind) *Table {
	t := &Table{
		buckets: make([]int32, minBuckets),
		mask:    minBuckets - 1,
		free:    nilID,
		kind:    kind,
		csHead:  nilID,
		csTail:  nilID,
		lfuFree: nilID,
		lfuHead: nilID,
	}
	for i := range t.buckets {
		t.buckets[i] = nilID
	}
	return t
}

// Len returns the number of live entries (composite entries count
// once), name-tree prefix entries included.
func (t *Table) Len() int { return t.used }

// LenCS returns the number of entries with a CS facet.
func (t *Table) LenCS() int { return t.nCS }

// LenPIT returns the number of entries with an active PIT facet.
func (t *Table) LenPIT() int { return t.nPIT }

// at returns the arena entry for id.
//
//ndnlint:hotpath — arena indexing under every probe; must not allocate
func (t *Table) at(id int32) *Entry {
	return &t.chunks[id>>chunkShift][id&chunkMask]
}

// Get returns the live entry for exactly name, or nil. The precomputed
// name hash selects the probe start; membership is verified by full
// name comparison.
//
//ndnlint:hotpath — the CS and PIT name probe; must not allocate
func (t *Table) Get(name ndn.Name) *Entry {
	h := name.Hash()
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return nil
		}
		e := t.at(id)
		if e.hash == h && e.name.Equal(name) {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// GetView is Get for a zero-copy name view: the wire-facing probe,
// taken without materializing an owned name.
//
//ndnlint:hotpath — wire probe; must not allocate
func (t *Table) GetView(v *ndn.NameView) *Entry {
	h := v.Hash()
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return nil
		}
		e := t.at(id)
		if e.hash == h && v.EqualName(e.name) {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// GetPrefix returns the live entry whose name is exactly the first k
// components of "of", given that prefix's rolling hash h (see
// ndn.MixComponentHash), or nil. This is the PIT longest-prefix probe:
// no prefix name is ever materialized.
//
//ndnlint:hotpath — per-prefix probe on every Data arrival; must not allocate
func (t *Table) GetPrefix(h uint64, k int, of ndn.Name) *Entry {
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			return nil
		}
		e := t.at(id)
		if e.hash == h && e.name.Len() == k && e.name.IsPrefixOf(of) {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// Put returns the entry for name, creating a facet-less entry if none
// exists. The caller attaches a facet or calls ReleaseIfEmpty before
// any other table operation, which may free a facet-less entry that
// only the name tree keeps. The table grows before probing, so a probe
// that misses ends on the empty slot the new entry takes.
func (t *Table) Put(name ndn.Name) *Entry {
	if (t.used+1)*4 > len(t.buckets)*3 {
		t.grow()
	}
	h := name.Hash()
	i := uint32(h) & t.mask
	for {
		id := t.buckets[i]
		if id == nilID {
			break
		}
		e := t.at(id)
		if e.hash == h && e.name.Equal(name) {
			return e
		}
		i = (i + 1) & t.mask
	}
	id, e := t.alloc(h, name)
	t.buckets[i] = id
	t.used++
	return e
}

// alloc takes an entry from the free list or extends the arena by one
// chunk. Chunked storage keeps entry pointers stable forever.
func (t *Table) alloc(h uint64, name ndn.Name) (int32, *Entry) {
	var id int32
	if t.free != nilID {
		id = t.free
		t.free = t.at(id).csNext
	} else {
		if int(t.next) == len(t.chunks)*chunkSize {
			t.chunks = append(t.chunks, make([]Entry, chunkSize))
		}
		id = t.next
		t.next++
	}
	e := t.at(id)
	e.id = id
	e.hash = h
	e.name = name
	e.live = true
	e.inTree = false
	e.csData = nil
	e.csPrev, e.csNext, e.lfuB = nilID, nilID, nilID
	e.parent, e.kids, e.pend = nilID, nilID, nilID
	e.hChild, e.hNext, e.hPrev = nilID, nilID, nilID
	e.below = 0
	return id, e
}

// ReleaseIfEmpty frees the entry once both facets are detached. An
// entry still carrying a facet is left alone, and so is one that CS
// facets below it keep in the name tree: the tree frees it when the
// last one goes. Freed entries keep their PIT slices for reuse.
func (t *Table) ReleaseIfEmpty(e *Entry) {
	if e.live && e.csData == nil && !e.pit.Active && e.below == 0 {
		t.release(e)
	}
}

// release frees an entry that carries no facet and is not in the name
// tree.
func (t *Table) release(e *Entry) {
	t.eraseSlotOf(e)
	e.live = false
	e.name = ndn.Name{}
	e.csNext = t.free
	t.free = e.id
	t.used--
}

// eraseSlotOf removes e's bucket slot using backward-shift deletion, so
// probe chains stay unbroken without tombstones.
func (t *Table) eraseSlotOf(e *Entry) {
	mask := t.mask
	i := uint32(e.hash) & mask
	for t.buckets[i] != e.id {
		i = (i + 1) & mask
	}
	j := i
	for {
		t.buckets[i] = nilID
		for {
			j = (j + 1) & mask
			id := t.buckets[j]
			if id == nilID {
				return
			}
			home := uint32(t.at(id).hash) & mask
			// Keep the entry at j when its home slot lies cyclically in
			// (i, j] — its probe chain does not cross the hole at i.
			if i <= j {
				if i < home && home <= j {
					continue
				}
			} else if home > i || home <= j {
				continue
			}
			t.buckets[i] = id
			break
		}
		i = j
	}
}

// grow doubles the bucket array and rehashes every live entry. Entry
// storage (the arena) is untouched, so entry pointers survive.
func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]int32, len(old)*2)
	t.mask = uint32(len(t.buckets) - 1)
	for i := range t.buckets {
		t.buckets[i] = nilID
	}
	for _, id := range old {
		if id == nilID {
			continue
		}
		i := uint32(t.at(id).hash) & t.mask
		for t.buckets[i] != nilID {
			i = (i + 1) & t.mask
		}
		t.buckets[i] = id
	}
}

// AttachCS installs the CS facet on an entry returned by Put: payload,
// policy-list membership and a count in every ancestor of the name
// tree. The entry must not already carry a CS facet.
func (t *Table) AttachCS(e *Entry, payload any) {
	e.csData = payload
	t.nCS++
	t.policyInsert(e)
	t.treeAdd(e)
}

// DetachCS removes the CS facet; the entry itself survives (it may
// still carry a PIT facet — call ReleaseIfEmpty after). Ancestors left
// with nothing below them leave the tree and are freed.
func (t *Table) DetachCS(e *Entry) {
	if e.csData == nil {
		return
	}
	t.policyRemove(e)
	e.csData = nil
	t.nCS--
	if e.inTree {
		t.treeRemove(e)
	}
}

// HideCS takes e's CS facet out of the name tree, so CSMin no longer
// finds it, until UnhideCS puts it back. The facet and its policy
// position stay; ancestors left with nothing below them are freed as
// by DetachCS.
func (t *Table) HideCS(e *Entry) { t.treeRemove(e) }

// UnhideCS returns a CS facet hidden by HideCS to the name tree.
func (t *Table) UnhideCS(e *Entry) { t.treeAdd(e) }

// treeAdd counts e's CS facet at e and at each ancestor. An entry
// entering the tree joins its parent's pending children; the parent is
// created on demand from the zero-copy name prefix.
func (t *Table) treeAdd(e *Entry) {
	e.inTree = true
	n := e.name
	for x, k := e, n.Len(); ; k-- {
		x.below++
		if k == 0 {
			return
		}
		if x.below == 1 {
			t.linkChild(t.Put(n.Prefix(k-1)), x)
		}
		x = t.at(x.parent)
	}
}

// treeRemove uncounts e's CS facet at e and at each ancestor. An entry
// left with nothing below it leaves its parent's child heap; an
// ancestor that also carries no facet is freed (e itself is the
// caller's to release).
func (t *Table) treeRemove(e *Entry) {
	e.inTree = false
	for x := e; x != nil; {
		var p *Entry
		if x.parent != nilID {
			p = t.at(x.parent)
		}
		x.below--
		if x.below == 0 {
			if p != nil {
				t.unlinkChild(p, x)
			}
			if x != e && x.csData == nil && !x.pit.Active {
				t.release(x)
			}
		}
		x = p
	}
}

// linkChild adds x to p's pending children: no compare.
func (t *Table) linkChild(p, x *Entry) {
	x.parent = p.id
	x.hNext = p.pend
	if p.pend != nilID {
		t.at(p.pend).hPrev = x.id
	}
	p.pend = x.id
}

// unlinkChild takes x out of p's child heap or pending list, melding
// x's heap children back in.
func (t *Table) unlinkChild(p, x *Entry) {
	switch {
	case p.kids == x.id:
		p.kids = t.pairUp(p.name.Len(), x.hChild)
	case p.pend == x.id:
		p.pend = x.hNext
		if x.hNext != nilID {
			t.at(x.hNext).hPrev = nilID
		}
	default:
		// A leftmost heap child's hPrev is its heap parent.
		if prev := t.at(x.hPrev); prev.hChild == x.id {
			prev.hChild = x.hNext
		} else {
			prev.hNext = x.hNext
		}
		if x.hNext != nilID {
			t.at(x.hNext).hPrev = x.hPrev
		}
		if sub := t.pairUp(p.name.Len(), x.hChild); sub != nilID {
			p.kids = t.meld(p.name.Len(), t.at(p.kids), t.at(sub)).id
		}
	}
	x.parent, x.hChild, x.hNext, x.hPrev = nilID, nilID, nilID, nilID
}

// order melds p's pending children into its child heap.
func (t *Table) order(p *Entry) {
	k := p.name.Len()
	r := t.pairUp(k, p.pend)
	p.pend = nilID
	if p.kids == nilID {
		p.kids = r
	} else {
		p.kids = t.meld(k, t.at(p.kids), t.at(r)).id
	}
}

// meld joins two heap roots whose names differ first at component k:
// the one sorting later becomes the leftmost heap child of the other,
// which is returned. The winner's own sibling links are left as they
// were.
func (t *Table) meld(k int, a, b *Entry) *Entry {
	if bytes.Compare(b.name.ComponentRef(k), a.name.ComponentRef(k)) < 0 {
		a, b = b, a
	}
	b.hPrev = a.id
	b.hNext = a.hChild
	if a.hChild != nilID {
		t.at(a.hChild).hPrev = b.id
	}
	a.hChild = b.id
	return a
}

// pairUp melds the sibling list starting at id into one heap with the
// pairing heap's two passes and returns its root, nilID for an empty
// list.
func (t *Table) pairUp(k int, id int32) int32 {
	// Left to right: meld adjacent pairs, stacking each result through
	// hNext.
	stack := nilID
	for id != nilID {
		a := t.at(id)
		id = a.hNext
		if id != nilID {
			b := t.at(id)
			id = b.hNext
			a = t.meld(k, a, b)
		}
		a.hNext = stack
		stack = a.id
	}
	if stack == nilID {
		return nilID
	}
	// Right to left: meld the stacked heaps into one.
	root := t.at(stack)
	for id = root.hNext; id != nilID; {
		x := t.at(id)
		id = x.hNext
		root = t.meld(k, root, x)
	}
	root.hNext, root.hPrev = nilID, nilID
	return root.id
}

// Below returns the number of CS facets in the name tree whose names
// have e's name as a prefix, e's own included.
func (t *Table) Below(e *Entry) int { return int(e.below) }

// CSMin returns the name tree's CS entry with the smallest name under
// e (by ndn.Name.Compare), nil when the tree holds none. A name sorts
// before every name it prefixes, and every name under a child heap's
// root sorts before every name under its siblings, so the walk follows
// heap roots down to the first entry whose own facet is in the tree,
// melding pending children into each heap on the way.
//
//ndnlint:hotpath — first prefix-match candidate in Store.Match; must not allocate
func (t *Table) CSMin(e *Entry) *Entry {
	if e.below == 0 {
		return nil
	}
	for !e.inTree {
		if e.pend != nilID {
			t.order(e)
		}
		e = t.at(e.kids)
	}
	return e
}

// AppendCS appends every CS-faceted entry, hidden ones included, to dst
// in arena order: deterministic, but not name order.
func (t *Table) AppendCS(dst []*Entry) []*Entry {
	for id := int32(0); id < t.next; id++ {
		if e := t.at(id); e.live && e.csData != nil {
			dst = append(dst, e)
		}
	}
	return dst
}

// AttachPIT installs the PIT facet and returns it for field
// initialization. Face and nonce slices arrive length-reset but keep
// their backing arrays from the slot's previous lifetime.
func (t *Table) AttachPIT(e *Entry) *PITFacet {
	pf := &e.pit
	pf.Active = true
	pf.Faces = pf.Faces[:0]
	pf.Nonces = pf.Nonces[:0]
	k := e.name.Len()
	for len(t.pitLens) <= k {
		t.pitLens = append(t.pitLens, 0) //ndnlint:allow alloccheck — grows once per new max name depth
	}
	t.pitLens[k]++
	t.nPIT++
	return pf
}

// DetachPIT removes the PIT facet; the entry itself survives (call
// ReleaseIfEmpty after).
func (t *Table) DetachPIT(e *Entry) {
	if !e.pit.Active {
		return
	}
	e.pit.Active = false
	e.pit.Faces = e.pit.Faces[:0]
	e.pit.Nonces = e.pit.Nonces[:0]
	e.pit.Trace, e.pit.Span = 0, 0
	t.pitLens[e.name.Len()]--
	t.nPIT--
}

// PITLenAt reports how many active PIT facets have names of exactly k
// components. Data satisfaction skips prefix lengths reporting zero
// without probing the table.
//
//ndnlint:hotpath — consulted per prefix length on every Data arrival
func (t *Table) PITLenAt(k int) int {
	if k >= len(t.pitLens) {
		return 0
	}
	return int(t.pitLens[k])
}

// ForEachPIT visits every active PIT facet in arena order. Arena order
// is a pure function of the operation history (no map iteration), but
// callers wanting name order must sort.
func (t *Table) ForEachPIT(fn func(*Entry)) {
	for id := int32(0); id < t.next; id++ {
		e := t.at(id)
		if e.live && e.pit.Active {
			fn(e)
		}
	}
}
