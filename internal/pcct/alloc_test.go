package pcct

import (
	"fmt"
	"testing"

	"ndnprivacy/internal/ndn"
)

// These tests cross-validate the static //ndnlint:hotpath verdicts with
// the runtime allocator: the composite table's probe paths and its
// steady-state churn must not allocate.

func TestLookupPathsZeroAlloc(t *testing.T) {
	tb := New(PolicyLRU)
	names := make([]ndn.Name, 64)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/alloc/%d", i))
		tb.Put(names[i])
	}
	hot := names[7]
	wire := ndn.EncodeInterest(ndn.NewInterest(hot, 1))
	v, err := ndn.InterestNameView(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if tb.Get(hot) == nil {
			t.Fatal("Get missed")
		}
		if tb.GetView(&v) == nil {
			t.Fatal("GetView missed")
		}
		if tb.Put(hot) == nil {
			t.Fatal("Put missed")
		}
	}); n != 0 {
		t.Errorf("lookup paths: %.0f allocs/run, want 0", n)
	}
}

func TestChurnZeroAllocSteadyState(t *testing.T) {
	tb := New(PolicyLRU)
	names := make([]ndn.Name, 32)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/churn/%d", i))
	}
	// Warm the arena and the bucket array; the name tree empties and
	// refills its prefix entries on every cycle below.
	for i := range names {
		e := tb.Put(names[i])
		tb.AttachCS(e, i)
	}
	for i := range names {
		e := tb.Get(names[i])
		tb.DetachCS(e)
		tb.ReleaseIfEmpty(e)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		nm := names[i%len(names)]
		i++
		e := tb.Put(nm)
		tb.AttachCS(e, i)
		tb.CSAccess(e)
		v := tb.CSVictim()
		tb.DetachCS(v)
		tb.ReleaseIfEmpty(v)
	}); n != 0 {
		t.Errorf("steady-state CS churn: %.0f allocs/run, want 0", n)
	}
}

func TestPITFacetZeroAllocSteadyState(t *testing.T) {
	tb := New(PolicyLRU)
	nm := ndn.MustParseName("/pit/alloc")
	// First cycle allocates the facet slices and the length counters.
	e := tb.Put(nm)
	pf := tb.AttachPIT(e)
	pf.Faces = append(pf.Faces, 1)
	pf.Nonces = append(pf.Nonces, 1)
	tb.DetachPIT(e)
	tb.ReleaseIfEmpty(e)
	if n := testing.AllocsPerRun(200, func() {
		e := tb.Put(nm)
		pf := tb.AttachPIT(e)
		pf.Faces = append(pf.Faces, 1)
		pf.Nonces = append(pf.Nonces, 42)
		tb.DetachPIT(e)
		tb.ReleaseIfEmpty(e)
	}); n != 0 {
		t.Errorf("steady-state PIT facet cycle: %.0f allocs/run, want 0", n)
	}
}
