package pcct

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ndnprivacy/internal/ndn"
)

func name(s string) ndn.Name { return ndn.MustParseName(s) }

func TestPutGetRelease(t *testing.T) {
	tb := New(PolicyLRU)
	a := tb.Put(name("/a/b"))
	if a == nil || tb.Len() != 1 {
		t.Fatalf("Put: entry=%v len=%d", a, tb.Len())
	}
	if tb.Put(name("/a/b")) != a {
		t.Fatal("second Put returned a different entry")
	}
	if got := tb.Get(name("/a/b")); got != a {
		t.Fatalf("Get = %v, want %v", got, a)
	}
	if tb.Get(name("/a/c")) != nil {
		t.Fatal("Get of absent name returned an entry")
	}
	tb.ReleaseIfEmpty(a)
	if tb.Len() != 0 || tb.Get(name("/a/b")) != nil {
		t.Fatal("released entry still visible")
	}
}

func TestReleaseKeepsFacetedEntries(t *testing.T) {
	tb := New(PolicyLRU)
	e := tb.Put(name("/x"))
	tb.AttachCS(e, "payload")
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != e {
		t.Fatal("entry with CS facet was released")
	}
	tb.DetachCS(e)
	tb.AttachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != e {
		t.Fatal("entry with PIT facet was released")
	}
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/x")) != nil {
		t.Fatal("empty entry survived release")
	}
}

func TestGetView(t *testing.T) {
	tb := New(PolicyLRU)
	n := name("/view/probe/x")
	e := tb.Put(n)
	wire := ndn.EncodeInterest(ndn.NewInterest(n, 1))
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.GetView(&v); got != e {
		t.Fatalf("GetView = %v, want %v", got, e)
	}
	missWire := ndn.EncodeInterest(ndn.NewInterest(name("/view/probe/y"), 2))
	mv, err := ndn.InterestNameView(missWire)
	if err != nil {
		t.Fatal(err)
	}
	if tb.GetView(&mv) != nil {
		t.Fatal("GetView of absent name returned an entry")
	}
}

func TestGetPrefixRollingHash(t *testing.T) {
	tb := New(PolicyLRU)
	full := name("/a/b/c/d")
	short := tb.Put(name("/a/b"))
	exact := tb.Put(full)
	h := ndn.NameHashSeed()
	var hits []*Entry
	for k := 0; ; k++ {
		if e := tb.GetPrefix(h, k, full); e != nil {
			hits = append(hits, e)
		}
		if k == full.Len() {
			break
		}
		h = ndn.MixComponentHash(h, full.ComponentRef(k))
	}
	if len(hits) != 2 || hits[0] != short || hits[1] != exact {
		t.Fatalf("prefix sweep found %d entries, want [/a/b, /a/b/c/d]", len(hits))
	}
}

// TestChurnAgainstMap drives random insert/lookup/delete against a map
// reference, crossing several growth and backward-shift boundaries.
func TestChurnAgainstMap(t *testing.T) {
	tb := New(PolicyLRU)
	ref := make(map[string]*Entry)
	rng := rand.New(rand.NewSource(7))
	names := make([]ndn.Name, 300)
	for i := range names {
		names[i] = name(fmt.Sprintf("/churn/%d/%d", i%17, i))
	}
	for op := 0; op < 20000; op++ {
		n := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0:
			e := tb.Put(n)
			if prev, ok := ref[n.Key()]; ok && prev != e {
				t.Fatalf("op %d: Put(%s) returned a different entry", op, n)
			}
			ref[n.Key()] = e
		case 1:
			e := tb.Get(n)
			want := ref[n.Key()]
			if e != want {
				t.Fatalf("op %d: Get(%s) = %v, want %v", op, n, e, want)
			}
		case 2:
			if e, ok := ref[n.Key()]; ok {
				tb.ReleaseIfEmpty(e)
				delete(ref, n.Key())
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tb.Len(), len(ref))
		}
	}
	for k, e := range ref {
		if got := tb.Get(e.Name()); got != e {
			t.Fatalf("final: Get(%s) = %v, want %v", k, got, e)
		}
	}
}

// sortedKeys returns the keys of es in name order.
func sortedKeys(es []*Entry) []string {
	sort.Slice(es, func(i, j int) bool { return es[i].Name().Compare(es[j].Name()) < 0 })
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name().Key()
	}
	return out
}

func csNames(tb *Table) []string { return sortedKeys(tb.AppendCS(nil)) }

func TestPrefixIndexSortedAndRanged(t *testing.T) {
	tb := New(PolicyLRU)
	uris := []string{"/b/x", "/a", "/a/c/z", "/a/b", "/c", "/a/b/d", "/a/b/c"}
	for _, u := range uris {
		e := tb.Put(name(u))
		tb.AttachCS(e, u)
	}
	got := csNames(tb)
	want := append([]string(nil), uris...)
	sort.Strings(want) // URI order == component order for these names
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tree holds %v, want %v", got, want)
	}
	// The subtree under /a/b holds /a/b, /a/b/c and /a/b/d; its
	// minimum is /a/b itself.
	ab := tb.Get(name("/a/b"))
	if tb.Below(ab) != 3 || tb.CSMin(ab) != ab {
		t.Fatalf("/a/b: below %d, min %v", tb.Below(ab), tb.CSMin(ab).Name())
	}
	// Hiding /a/b surfaces the next name below it.
	tb.HideCS(ab)
	if tb.Below(ab) != 2 || tb.CSMin(ab).Name().Key() != "/a/b/c" {
		t.Fatalf("hidden /a/b: below %d, min %v", tb.Below(ab), tb.CSMin(ab).Name())
	}
	tb.UnhideCS(ab)
	// Interior /a/c exists only for the tree.
	if ac := tb.Get(name("/a/c")); ac == nil || ac.CS() != nil || tb.CSMin(ac).Name().Key() != "/a/c/z" {
		t.Fatal("prefix-only entry /a/c missing or wrong")
	}
	// Seven names plus the prefix-only /, /a/c and /b.
	if tb.Len() != len(uris)+3 {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(uris)+3)
	}
	// Removing /a/c/z frees the prefix-only /a/c.
	z := tb.Get(name("/a/c/z"))
	tb.DetachCS(z)
	tb.ReleaseIfEmpty(z)
	if tb.Get(name("/a/c")) != nil {
		t.Fatal("prefix-only entry survived its last CS descendant")
	}
	got = csNames(tb)
	if len(got) != len(uris)-1 {
		t.Fatalf("after removal the tree holds %d names", len(got))
	}
	if m := tb.CSMin(tb.Get(name("/"))); m.Name().Key() != "/a" {
		t.Fatalf("root minimum = %s, want /a", m.Name())
	}
}

func TestPITFacetCounts(t *testing.T) {
	tb := New(PolicyLRU)
	a := tb.Put(name("/p"))
	b := tb.Put(name("/p/q/r"))
	tb.AttachPIT(a)
	tb.AttachPIT(b)
	if tb.LenPIT() != 2 || tb.PITLenAt(1) != 1 || tb.PITLenAt(3) != 1 || tb.PITLenAt(2) != 0 {
		t.Fatalf("pit length counts wrong: len=%d at1=%d at3=%d", tb.LenPIT(), tb.PITLenAt(1), tb.PITLenAt(3))
	}
	if tb.PITLenAt(99) != 0 {
		t.Fatal("out-of-range prefix length must report zero")
	}
	tb.DetachPIT(a)
	if tb.LenPIT() != 1 || tb.PITLenAt(1) != 0 {
		t.Fatal("detach did not decrement length counts")
	}
	// Slices are retained across lifecycles.
	pf := b.PIT()
	pf.Faces = append(pf.Faces, 3)
	pf.Nonces = append(pf.Nonces, 77)
	tb.DetachPIT(b)
	pf2 := tb.AttachPIT(b)
	if len(pf2.Faces) != 0 || len(pf2.Nonces) != 0 {
		t.Fatal("facet slices not length-reset on reattach")
	}
	if cap(pf2.Faces) == 0 || cap(pf2.Nonces) == 0 {
		t.Fatal("facet slices lost their backing arrays")
	}
}

func TestCompositeEntryBothFacets(t *testing.T) {
	tb := New(PolicyLRU)
	e := tb.Put(name("/both"))
	tb.AttachPIT(e)
	tb.AttachCS(e, "data")
	// Len also counts the name tree's entry for the empty name.
	if tb.Len() != 2 || tb.LenCS() != 1 || tb.LenPIT() != 1 {
		t.Fatalf("composite entry miscounted: %d/%d/%d", tb.Len(), tb.LenCS(), tb.LenPIT())
	}
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if tb.Get(name("/both")) != e || e.CS() == nil {
		t.Fatal("CS facet lost when PIT facet detached")
	}
}
