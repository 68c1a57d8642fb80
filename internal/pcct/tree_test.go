package pcct

import (
	"math/rand"
	"testing"

	"ndnprivacy/internal/ndn"
)

// treeUniverse returns the root plus every name of one to three
// components over {a, b, c}: every proper prefix of a universe name is
// itself in the universe, so the tree's prefix-only entries are too.
func treeUniverse() []ndn.Name {
	out := []ndn.Name{name("/")}
	for frontier := []ndn.Name{name("/")}; len(out) < 40; {
		var next []ndn.Name
		for _, p := range frontier {
			for _, c := range []string{"a", "b", "c"} {
				n := p.AppendString(c)
				out = append(out, n)
				next = append(next, n)
			}
		}
		frontier = next
	}
	return out
}

// TestNameTreeInvariants drives random AttachCS/DetachCS/AttachPIT/
// DetachPIT/HideCS/UnhideCS calls, each on an entry from Put or Get and
// followed by ReleaseIfEmpty where a facet goes, against a map
// reference. After every operation each universe name's entry must
// report Below equal to the number of tree CS names it prefixes and
// CSMin equal to their minimum, faceted entries must keep their
// identity, the facet counts must match, and the table must hold
// exactly the faceted entries plus the prefixes of tree CS names.
// Draining every facet must leave no live entry behind.
func TestNameTreeInvariants(t *testing.T) {
	universe := treeUniverse()
	tb := New(PolicyLRU)
	faceted := make(map[string]*Entry)
	cs := make(map[string]bool)
	hidden := make(map[string]bool)
	pit := make(map[string]bool)
	rng := rand.New(rand.NewSource(13))

	check := func(op int) {
		t.Helper()
		if tb.LenCS() != len(cs) || tb.LenPIT() != len(pit) {
			t.Fatalf("op %d: LenCS/LenPIT = %d/%d, want %d/%d", op, tb.LenCS(), tb.LenPIT(), len(cs), len(pit))
		}
		live := 0
		for _, n := range universe {
			below := 0
			var least ndn.Name
			for _, c := range universe {
				if ck := c.Key(); cs[ck] && !hidden[ck] && n.IsPrefixOf(c) {
					if below == 0 || c.Compare(least) < 0 {
						least = c
					}
					below++
				}
			}
			e := tb.Get(n)
			f := faceted[n.Key()]
			if f != nil && e != f {
				t.Fatalf("op %d: Get(%s) = %v, want the faceted entry", op, n, e)
			}
			if e == nil {
				if below > 0 {
					t.Fatalf("op %d: %s has %d CS names below but no entry", op, n, below)
				}
				continue
			}
			live++
			if e.Name().Key() != n.Key() {
				t.Fatalf("op %d: Get(%s) returned %s", op, n, e.Name())
			}
			if below == 0 && f == nil {
				t.Fatalf("op %d: %s is neither faceted nor a prefix of a tree CS name", op, n)
			}
			if got := tb.Below(e); got != below {
				t.Fatalf("op %d: Below(%s) = %d, want %d", op, n, got, below)
			}
			m := tb.CSMin(e)
			if got := (m != nil); got != (below > 0) || got && !m.Name().Equal(least) {
				t.Fatalf("op %d: CSMin(%s) = %v, want %s (below %d)", op, n, nameOf(m), least, below)
			}
		}
		if live != tb.Len() {
			t.Fatalf("op %d: %d entries reachable by name, Len reports %d", op, live, tb.Len())
		}
	}
	// settle records whether the entry for k still carries a facet.
	settle := func(k string, e *Entry) {
		if cs[k] || pit[k] {
			faceted[k] = e
		} else {
			delete(faceted, k)
		}
	}

	for op := 0; op < 20000; op++ {
		n := universe[rng.Intn(len(universe))]
		k := n.Key()
		switch rng.Intn(7) {
		case 0:
			if !cs[k] {
				e := tb.Put(n)
				tb.AttachCS(e, k)
				cs[k] = true
				settle(k, e)
			}
		case 1:
			if cs[k] {
				e := tb.Get(n)
				tb.DetachCS(e)
				tb.ReleaseIfEmpty(e)
				delete(cs, k)
				delete(hidden, k)
				settle(k, e)
			}
		case 2:
			if !pit[k] {
				e := tb.Put(n)
				tb.AttachPIT(e)
				pit[k] = true
				settle(k, e)
			}
		case 3:
			if pit[k] {
				e := tb.Get(n)
				tb.DetachPIT(e)
				tb.ReleaseIfEmpty(e)
				delete(pit, k)
				settle(k, e)
			}
		case 4:
			if cs[k] && !hidden[k] {
				tb.HideCS(tb.Get(n))
				hidden[k] = true
			}
		case 5:
			if hidden[k] {
				tb.UnhideCS(tb.Get(n))
				delete(hidden, k)
			}
		case 6:
			// A Put that attaches nothing leaves the table as it was.
			tb.ReleaseIfEmpty(tb.Put(n))
		}
		check(op)
	}

	for _, n := range universe {
		if e := faceted[n.Key()]; e != nil {
			tb.DetachCS(e)
			tb.DetachPIT(e)
			tb.ReleaseIfEmpty(e)
			delete(faceted, n.Key())
			delete(cs, n.Key())
			delete(hidden, n.Key())
			delete(pit, n.Key())
		}
	}
	check(-1)
	if tb.Len() != 0 {
		t.Fatalf("drained table still holds %d live entries", tb.Len())
	}
}

func nameOf(e *Entry) any {
	if e == nil {
		return nil
	}
	return e.Name()
}
