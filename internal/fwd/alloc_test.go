package fwd

import (
	"testing"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry"
	"ndnprivacy/internal/telemetry/span"
)

// These tests pin the zero-allocation contract of the //ndnlint:hotpath
// annotations on the forwarder's miss/drop accounting: the hit/miss
// delay gap is the paper's attack signal, so the accounting on the miss
// side must not add allocation jitter the hit side doesn't have.

func TestMissTelemetryZeroAlloc(t *testing.T) {
	// Registry-only instrumentation: counters are registered up front,
	// the trace sink is absent (its emission path carries an explicit
	// alloccheck waiver and is opt-in).
	f, err := New(Config{Name: "n", Sim: netsim.New(1), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/miss"), 3)
	if n := testing.AllocsPerRun(200, func() {
		f.missTelemetry(interest, 1, 0)
	}); n != 0 {
		t.Errorf("missTelemetry (instrumented): %.0f allocs/run, want 0", n)
	}
}

func TestDropTelemetryZeroAlloc(t *testing.T) {
	f, err := New(Config{Name: "n", Sim: netsim.New(1), Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/drop"), 4)
	for _, reason := range []string{"scope", "dup_nonce", "pit_full", "no_route"} {
		if n := testing.AllocsPerRun(200, func() {
			f.dropTelemetry(interest, 1, 0, reason)
		}); n != 0 {
			t.Errorf("dropTelemetry(%s): %.0f allocs/run, want 0", reason, n)
		}
	}
}

func TestProbeWireZeroAlloc(t *testing.T) {
	sim := netsim.New(1)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ndn.NewData(ndn.MustParseName("/probe/hot"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	router.Store().Insert(d, 0, 0)
	hitWire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1))
	missWire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/probe/cold"), 2))
	hits := 0
	if n := testing.AllocsPerRun(200, func() {
		if cached, _ := router.ProbeWire(hitWire, 0); cached {
			hits++
		}
		if cached, _ := router.ProbeWire(missWire, 0); cached {
			t.Fatal("cold probe reported cached")
		}
	}); n != 0 {
		t.Errorf("ProbeWire (hit + miss): %.0f allocs/run, want 0", n)
	}
	if hits == 0 {
		t.Fatal("hot probe unexpectedly missed")
	}
}

func TestProbeWireWithSpansZeroAlloc(t *testing.T) {
	// Span recording on the wire-probe path must stay allocation-free
	// when the tracer's chunk storage is pre-reserved: the paper's
	// timing signal must not gain GC jitter from observability.
	sim := netsim.New(1)
	tracer := span.NewTracer(1)
	sim.SetSpans(tracer)
	router, err := NewRouter(sim, "R", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ndn.NewData(ndn.MustParseName("/probe/hot"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	router.Store().Insert(d, 0, 0)
	hitWire := ndn.EncodeInterest(ndn.NewInterest(d.Name, 1))
	missWire := ndn.EncodeInterest(ndn.NewInterest(ndn.MustParseName("/probe/cold"), 2))
	tracer.Reserve(tracer.Len() + 4096)
	if n := testing.AllocsPerRun(200, func() {
		router.ProbeWire(hitWire, 0)
		router.ProbeWire(missWire, 0)
	}); n != 0 {
		t.Errorf("ProbeWire with spans enabled: %.0f allocs/run, want 0", n)
	}
	if tracer.Len() == 0 {
		t.Fatal("no view-probe spans recorded")
	}
}

func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	f, err := New(Config{Name: "n", Sim: netsim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	interest := ndn.NewInterest(ndn.MustParseName("/alloc/off"), 5)
	if n := testing.AllocsPerRun(200, func() {
		f.missTelemetry(interest, 1, 0)
		f.dropTelemetry(interest, 1, 0, "scope")
	}); n != 0 {
		t.Errorf("telemetry disabled: %.0f allocs/run, want 0", n)
	}
}

func TestInterestStepZeroAlloc(t *testing.T) {
	// The forwarder's table steps for one interest — CS match then
	// recency touch on a hit; CS match, PIT admission and Data
	// satisfaction on a miss — must not allocate in steady state.
	store := cache.MustNewStore(0, nil)
	pit := table.NewPIT()
	hot, err := ndn.NewData(ndn.MustParseName("/step/hot"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	store.Insert(hot, 0, 0)
	hitInterest := ndn.NewInterest(hot.Name, 7)
	cold := ndn.MustParseName("/step/cold")
	missInterest := ndn.NewInterest(cold, 8)
	coldData, err := ndn.NewData(cold, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// Prime one pending lifecycle so the table arena, facet slices and
	// result buffer reach steady state (first admission allocates by
	// design).
	pit.Insert(missInterest, 1, 0)
	if _, ok := pit.Satisfy(coldData, 0); !ok {
		t.Fatal("prime satisfaction failed")
	}
	if n := testing.AllocsPerRun(200, func() {
		// Hit leg: CS match → recency touch.
		if _, found := store.Match(hitInterest, 0); !found {
			t.Fatal("hot name missed")
		}
		store.Touch(hot.Name)
		// Miss leg: CS match → PIT admission → Data satisfaction.
		if _, found := store.Match(missInterest, 0); found {
			t.Fatal("cold name hit")
		}
		if pit.Insert(missInterest, 1, 0) != table.InsertedNew {
			t.Fatal("admission failed")
		}
		if _, ok := pit.Satisfy(coldData, 0); !ok {
			t.Fatal("satisfaction failed")
		}
	}); n != 0 {
		t.Errorf("interest step: %.2f allocs/run, want 0", n)
	}
}
