// Package cache implements the NDN Content Store: a capacity-bounded
// content cache with pluggable eviction (LRU as in the paper's Section VII
// evaluation, plus FIFO and LFU for ablations), per-entry freshness, and
// the per-entry metadata the paper's cache-management algorithms need —
// forward counts (the router state S(C) of Section IV), first-fetch delay
// γ_C (Section V-B), privacy marking state, and Random-Cache counters
// (Section VI, Algorithm 1).
//
// The store is a facade over a hash-indexed name table
// (internal/pcct): entries live in the table's pooled arena, eviction
// policies are the table's intrusive lists, and prefix matching walks
// the table's name tree.
package cache

import "ndnprivacy/internal/pcct"

// Policy selects which eviction policy a bounded store uses. Policies
// are implemented inside the name table as intrusive lists
// threaded through the entries themselves (internal/pcct); this
// interface is a selector, not a container — the old string-keyed
// OnInsert/OnAccess/Victim mechanism and its per-key map and list-node
// allocations are gone. The kind method is unexported on purpose:
// only the three policies the table implements exist.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	kind() pcct.PolicyKind
}

type policyKind pcct.PolicyKind

func (k policyKind) Name() string          { return pcct.PolicyKind(k).String() }
func (k policyKind) kind() pcct.PolicyKind { return pcct.PolicyKind(k) }

// NewLRU returns the least-recently-used policy. This is the policy
// used in the paper's trace evaluation: insert and access (including
// hits the privacy layer disguises as misses — Section VII, "the
// corresponding cache entry becomes fresh even if the response is
// delayed") both refresh recency.
func NewLRU() Policy { return policyKind(pcct.PolicyLRU) }

// NewFIFO returns the first-in-first-out policy: eviction in insertion
// order, ignoring accesses and refreshes.
func NewFIFO() Policy { return policyKind(pcct.PolicyFIFO) }

// NewLFU returns the least-frequently-used policy, breaking ties by
// least recency within a frequency.
func NewLFU() Policy { return policyKind(pcct.PolicyLFU) }

// NewPolicy constructs a policy by name ("lru", "fifo", "lfu"); it
// returns false for unknown names.
func NewPolicy(name string) (Policy, bool) {
	switch name {
	case "lru":
		return NewLRU(), true
	case "fifo":
		return NewFIFO(), true
	case "lfu":
		return NewLFU(), true
	default:
		return nil, false
	}
}
