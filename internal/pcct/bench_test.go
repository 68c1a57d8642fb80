package pcct

import (
	"fmt"
	"testing"

	"ndnprivacy/internal/ndn"
)

func benchNames(n int) []ndn.Name {
	names := make([]ndn.Name, n)
	for i := range names {
		names[i] = ndn.MustParseName(fmt.Sprintf("/site/%d/obj/%d", i%17, i))
	}
	return names
}

// BenchmarkPCCTNameInsert is the composite-table equivalent of
// ndn.BenchmarkNameKeyMapInsert: index the same 1000 names, but into
// the open-addressing table keyed by precomputed rolling hashes instead
// of a map[string] re-hashing every URI. Entries are released outside
// the timer, so steady-state inserts come from the free list.
func BenchmarkPCCTNameInsert(b *testing.B) {
	names := benchNames(1000)
	tb := New(PolicyLRU)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range names {
			tb.Put(names[i])
		}
		b.StopTimer()
		for i := range names {
			if e := tb.Get(names[i]); e != nil {
				tb.ReleaseIfEmpty(e)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkPCCTLookupHit measures the one-probe exact lookup over a
// populated table — the per-interest cost of a CS or PIT name lookup.
func BenchmarkPCCTLookupHit(b *testing.B) {
	names := benchNames(1000)
	tb := New(PolicyLRU)
	for i := range names {
		tb.Put(names[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if tb.Get(names[n%len(names)]) == nil {
			b.Fatal("miss")
		}
	}
}

// BenchmarkPCCTChurn measures steady-state insert+release cycling
// through the free list and backward-shift deletion.
func BenchmarkPCCTChurn(b *testing.B) {
	names := benchNames(1024)
	tb := New(PolicyLRU)
	for i := 0; i < 512; i++ {
		tb.Put(names[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		idx := n % 512
		if e := tb.Get(names[idx]); e != nil {
			tb.ReleaseIfEmpty(e)
		}
		tb.Put(names[idx+512])
		if e := tb.Get(names[idx+512]); e != nil {
			tb.ReleaseIfEmpty(e)
		}
		tb.Put(names[idx])
	}
}

// BenchmarkPCCTCSAttach measures the full CS-facet cycle: table insert,
// policy-list insert, name-tree ancestor walk, then detach and release —
// the structural cost of one cache insert-evict pair without payload
// cloning.
func BenchmarkPCCTCSAttach(b *testing.B) {
	names := benchNames(256)
	tb := New(PolicyLRU)
	for i := range names {
		e := tb.Put(names[i])
		tb.AttachCS(e, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v := tb.CSVictim()
		tb.DetachCS(v)
		tb.ReleaseIfEmpty(v)
		e := tb.Put(names[n%len(names)])
		if e.CS() == nil {
			tb.AttachCS(e, n)
		}
	}
}
