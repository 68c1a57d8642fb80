package cache

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"ndnprivacy/internal/ndn"
)

func benchData(i int) *ndn.Data {
	d, err := ndn.NewData(ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", i%31, i)), []byte("p"))
	if err != nil {
		panic(err)
	}
	return d
}

func benchmarkStoreChurn(b *testing.B, policyName string) {
	b.Helper()
	policy, ok := NewPolicy(policyName)
	if !ok {
		b.Fatalf("unknown policy %s", policyName)
	}
	s := MustNewStore(1024, policy)
	// Pre-populate a working set.
	objects := make([]*ndn.Data, 4096)
	for i := range objects {
		objects[i] = benchData(i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d := objects[rng.Intn(len(objects))]
		if entry, found := s.Exact(d.Name, 0); found {
			s.Touch(entry.Data.Name)
		} else {
			s.Insert(d, time.Duration(n), time.Millisecond)
		}
	}
}

func BenchmarkStoreChurnLRU(b *testing.B)  { benchmarkStoreChurn(b, "lru") }
func BenchmarkStoreChurnFIFO(b *testing.B) { benchmarkStoreChurn(b, "fifo") }
func BenchmarkStoreChurnLFU(b *testing.B)  { benchmarkStoreChurn(b, "lfu") }

func BenchmarkStoreExactHit(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	name := ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", 5000%31, 5000))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, found := s.Exact(name, 0); !found {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreExactViewHit is BenchmarkStoreExactHit taken directly
// over the wire buffer: parse a zero-copy view, probe the hash-indexed
// table. This is the full per-interest hit/miss decision the paper's
// timing adversary measures, with no owned name materialized.
func BenchmarkStoreExactViewHit(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	name := ndn.MustParseName(fmt.Sprintf("/bench/site%d/obj%d", 5000%31, 5000))
	wire := ndn.EncodeName(nil, name)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v, err := ndn.ParseNameView(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, found := s.ExactView(&v, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStorePrefixMatch(b *testing.B) {
	s := MustNewStore(0, nil)
	for i := 0; i < 10000; i++ {
		s.Insert(benchData(i), 0, 0)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/bench/site7"), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, found := s.Match(interest, 0); !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStoreInsertEvict(b *testing.B) {
	s := MustNewStore(256, NewLRU())
	// Pre-generate the object pool so the loop measures the store's
	// insert+evict cost, not Data construction.
	objects := make([]*ndn.Data, 8192)
	for i := range objects {
		objects[i] = benchData(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Insert(objects[n%len(objects)], time.Duration(n), 0)
	}
}

// BenchmarkStoreInsertEvictScale is the in-process shape of a full
// router store under a stream of never-cached names: every op is a
// Match miss followed by an Insert that evicts. Names are flat
// (/bench/m/1/<i>) and the store is pre-filled to capacity, so the
// per-op cost shows how CS miss, insert and evict scale with store
// size. The name pool is one larger than capacity and cycled in order,
// so under LRU every name is absent when it comes round again.
func BenchmarkStoreInsertEvictScale(b *testing.B) {
	for _, capacity := range []int{256, 4096, 65536, 262144} {
		var (
			s        *Store
			pool     []*ndn.Data
			interest ndn.Interest
			next     int
		)
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			if s == nil {
				base := ndn.MustParseName("/bench/m/1")
				pool = make([]*ndn.Data, capacity+1024)
				for i := range pool {
					d, err := ndn.NewData(base.AppendString(strconv.Itoa(i)), []byte("p"))
					if err != nil {
						b.Fatal(err)
					}
					pool[i] = d
				}
				s = MustNewStore(capacity, NewLRU())
				for next = 0; next < capacity; next++ {
					s.Insert(pool[next], 0, 0)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				d := pool[next%len(pool)]
				next++
				interest.Name = d.Name
				if _, found := s.Match(&interest, 0); found {
					b.Fatal("unexpected hit")
				}
				s.Insert(d, 0, 0)
			}
		})
	}
}

// BenchmarkStorePrefixMatchSkip is a prefix match whose smallest
// candidate does not win, under a flat 65536-entry subtree
// (/bench/m/1/x<i>). In "withheld" the smallest cached name carries an
// unpredictable suffix, which answers only exact interests, so the
// match skips it. In "stale" every op first caches an already-expired
// object under the smallest name, so the match purges it. Both return
// /bench/m/1/x0.
func BenchmarkStorePrefixMatchSkip(b *testing.B) {
	base := ndn.MustParseName("/bench/m/1")
	fill := func(b *testing.B) *Store {
		s := MustNewStore(0, nil)
		for i := 0; i < 65536; i++ {
			d, err := ndn.NewData(base.AppendString("x"+strconv.Itoa(i)), []byte("p"))
			if err != nil {
				b.Fatal(err)
			}
			s.Insert(d, 0, 0)
		}
		return s
	}
	x0 := base.AppendString("x0")
	mustMatchX0 := func(b *testing.B, s *Store, interest *ndn.Interest, now time.Duration) {
		if e, found := s.Match(interest, now); !found || !e.Data.Name.Equal(x0) {
			b.Fatalf("Match = %v, %t; want %s", e, found, x0)
		}
	}
	interest := ndn.NewInterest(base, 1)
	b.Run("withheld", func(b *testing.B) {
		s := fill(b)
		ss, err := ndn.NewSharedSecret([]byte("k"))
		if err != nil {
			b.Fatal(err)
		}
		d, err := ndn.NewData(ss.UnpredictableName(base, 0), []byte("p"))
		if err != nil {
			b.Fatal(err)
		}
		s.Insert(d, 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			mustMatchX0(b, s, interest, 0)
		}
	})
	b.Run("stale", func(b *testing.B) {
		s := fill(b)
		d, err := ndn.NewData(base.AppendString("a"), []byte("p"))
		if err != nil {
			b.Fatal(err)
		}
		d.Freshness = time.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			s.Insert(d, 0, 0)
			mustMatchX0(b, s, interest, time.Second)
		}
	})
}
