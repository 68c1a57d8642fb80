package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/fwd"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netface"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/rt"
	"ndnprivacy/internal/table"
	"ndnprivacy/internal/telemetry/span"
)

// recorder collects what the timing wrappers around the in-process
// router see. Executor callbacks never overlap, but sockets are read
// from their own goroutines, so counters are atomic and the slices sit
// behind mu.
type recorder struct {
	base      time.Time
	schedules atomic.Int64
	reads     atomic.Int64
	writes    atomic.Int64
	writeNS   atomic.Int64
	bytes     atomic.Int64

	mu         sync.Mutex
	waitNS     []float64
	busyNS     int64
	callbacks  int64
	onHitNS    int64
	onCachedNS int64
	generated  int64
	spans      []span.Record
	cur        *span.Record // the sampled callback now running, if any
	nextID     uint64
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// child records a span under the running sampled callback.
func (r *recorder) child(kind, name string, start, end int64) {
	if r.cur == nil {
		return
	}
	r.nextID++
	r.spans = append(r.spans, span.Record{Trace: r.cur.Trace, ID: r.nextID, Parent: r.cur.ID, Kind: kind, Name: name, Start: start, End: end})
}

// timedExec wraps the router's executor (fwd.Executor, which the
// forwarder and netface take from their caller): it times each callback
// from when it was due to when it started (wait) and ran (busy).
type timedExec struct {
	inner *rt.Executor
	rec   *recorder
}

func (e *timedExec) Now() time.Duration { return e.inner.Now() }
func (e *timedExec) Rand() *rand.Rand   { return e.inner.Rand() }

func (e *timedExec) Schedule(delay time.Duration, fn func()) {
	r := e.rec
	due := r.now() + int64(delay)
	r.schedules.Add(1)
	e.inner.Schedule(delay, func() {
		start := r.now()
		r.mu.Lock()
		r.callbacks++
		if r.callbacks%spanEvery == 0 {
			r.nextID++
			r.cur = &span.Record{Trace: uint64(r.callbacks), ID: r.nextID, Kind: "rt", Name: "callback", Start: start}
		}
		r.mu.Unlock()
		fn()
		end := r.now()
		r.mu.Lock()
		r.waitNS = append(r.waitNS, float64(start-due))
		r.busyNS += end - start
		if r.cur != nil {
			r.cur.End = end
			r.spans = append(r.spans, *r.cur)
			r.cur = nil
		}
		r.mu.Unlock()
	})
}

// timedCM wraps the cache manager (core.CacheManager, passed in through
// fwd.Config). Both calls run inside executor callbacks.
type timedCM struct {
	inner core.CacheManager
	rec   *recorder
}

func (m *timedCM) Name() string { return m.inner.Name() }

func (m *timedCM) OnCacheHit(e *cache.Entry, in *ndn.Interest, now time.Duration) core.Decision {
	start := m.rec.now()
	d := m.inner.OnCacheHit(e, in, now)
	end := m.rec.now()
	m.rec.mu.Lock()
	m.rec.onHitNS += end - start
	if d.Action == core.ActionMiss {
		m.rec.generated++
	}
	m.rec.child("core", "on_hit", start, end)
	m.rec.mu.Unlock()
	return d
}

func (m *timedCM) OnContentCached(e *cache.Entry, fetchDelay, now time.Duration) {
	start := m.rec.now()
	m.inner.OnContentCached(e, fetchDelay, now)
	end := m.rec.now()
	m.rec.mu.Lock()
	m.rec.onCachedNS += end - start
	m.rec.child("core", "on_cached", start, end)
	m.rec.mu.Unlock()
}

// timedConn counts the Read and Write calls a face makes and times the
// writes.
type timedConn struct {
	net.Conn
	rec *recorder
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.reads.Add(1)
	c.rec.bytes.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := c.rec.now()
	n, err := c.Conn.Write(p)
	end := c.rec.now()
	c.rec.writes.Add(1)
	c.rec.writeNS.Add(end - start)
	c.rec.bytes.Add(int64(n))
	c.rec.mu.Lock()
	c.rec.child("netface", "write", start, end)
	c.rec.mu.Unlock()
	return n, err
}

type timedListener struct {
	net.Listener
	rec *recorder
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, rec: l.rec}, nil
}

// inProcRouter is ndnd's assembly (rt.New, cache.NewStore with LRU,
// core.NewDelayManager, fwd.New, netface) built in this process with the
// timing wrappers at the interfaces it takes from its caller. The store
// is passed unwrapped: fwd picks its fused path from *cache.Store.
type inProcRouter struct {
	exec     *rt.Executor
	listener *netface.Listener
	upstream *netface.Face
	rec      *recorder
}

func startInProc(load loadSpec, upstream string, seed int64) (*inProcRouter, error) {
	rec := &recorder{base: time.Now()}
	exec := rt.New(seed)
	r := &inProcRouter{exec: exec, rec: rec}
	mgr, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		return nil, err
	}
	store, err := cache.NewStore(load.capacity, cache.NewLRU())
	if err != nil {
		return nil, err
	}
	f, err := fwd.New(fwd.Config{Name: "ndnd", Sim: &timedExec{inner: exec, rec: rec}, Store: store, Manager: &timedCM{inner: mgr, rec: rec}})
	if err != nil {
		return nil, err
	}
	up, err := net.Dial("tcp", upstream)
	if err != nil {
		return nil, err
	}
	if r.upstream, err = netface.Attach(f, &timedConn{Conn: up, rec: rec}, nil); err != nil {
		return nil, err
	}
	if err := netface.RunOn(f, func() error { return f.RegisterPrefix(benchPrefix, r.upstream.ID()) }); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.listener, err = netface.Listen(f, &timedListener{Listener: ln, rec: rec}, nil); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *inProcRouter) addr() string { return r.listener.Addr().String() }
func (r *inProcRouter) pid() int     { return os.Getpid() }

func (r *inProcRouter) close() {
	_ = r.listener.Close()
	_ = r.upstream.Close()
	<-r.upstream.Done()
	r.exec.Close()
}

// reset zeroes every count at the start of the measured window, so the
// prefill does not show.
func (r *recorder) reset() {
	for _, c := range []*atomic.Int64{&r.schedules, &r.reads, &r.writes, &r.writeNS, &r.bytes} {
		c.Store(0)
	}
	r.mu.Lock()
	r.waitNS, r.busyNS, r.callbacks = r.waitNS[:0], 0, 0
	r.onHitNS, r.onCachedNS, r.generated = 0, 0, 0
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// tracedLoopback is a loopback workload's traced run: half the window
// on ndnd untraced (the reference, measured as the end-to-end run
// measures it), half on the in-process router with the wrappers, then
// the ledgers for the layers no wrapper reaches.
func tracedLoopback(cfg config, rep *report, load loadSpec) error {
	half := cfg.window() / 2
	quietHarness()
	ref, err := daemonPhase(load, cfg.seed, half)
	if err != nil {
		return err
	}
	checkLoopback(rep, ref)
	// The router now runs in this process: give it ndnd's settings.
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)
	prod, err := startProducer(load.payload)
	if err != nil {
		return err
	}
	defer prod.close()
	router, err := startInProc(load, prod.addr(), cfg.seed)
	if err != nil {
		return err
	}
	var nonce atomic.Uint64
	nonce.Store(uint64(cfg.seed)<<32 | 1<<31)
	rec := router.rec
	var run *loopbackRun
	allocBytes, gcFrac, err := memDelta(func() error {
		var err error
		run, err = measure(router, prod, load, cfg.seed, half, &nonce, true, rec.reset)
		return err
	})
	router.close()
	if err != nil {
		return err
	}
	checkLoopback(rep, run)
	fetches := float64(run.measured.ok)
	rec.mu.Lock()
	waits := sortedCopy(rec.waitNS)
	n := len(waits)
	hp, _ := highestPercentile(n)
	meanWait := 0.0
	for _, w := range waits {
		meanWait += w / float64(n)
	}
	meanBusy := float64(rec.busyNS) / float64(rec.callbacks)
	rep.layer("rt.wait_p50.ns", percentile(waits, 50), fmt.Sprintf("n=%d callbacks", n))
	rep.layer("rt.wait_p99.ns", percentile(waits, 99), fmt.Sprintf("n=%d callbacks; highest supported p%g = %.0f ns", n, hp, percentile(waits, hp)))
	rep.layer("rt.busy.ns", meanBusy, fmt.Sprintf("mean of %d callbacks", rec.callbacks))
	sched := float64(rec.schedules.Load()) / fetches
	rep.layer("rt.schedules_per_fetch", sched, fmt.Sprintf("%d fetches", run.measured.ok))
	rep.layer("rt.utilization", float64(rec.busyNS)/float64(run.measured.elapsed.Nanoseconds()), "callback busy time / window")
	writes := float64(rec.writes.Load())
	rep.layer("netface.writes_per_fetch", writes/fetches, "net.Conn Write calls")
	rep.layer("netface.reads_per_fetch", float64(rec.reads.Load())/fetches, "net.Conn Read calls")
	rep.layer("netface.write.ns", float64(rec.writeNS.Load())/writes, "mean net.Conn Write")
	rep.layer("netface.bytes_per_fetch", float64(rec.bytes.Load())/fetches, "read+written by the router's faces")
	// The hit path calls OnCacheHit once per fetch, the miss path
	// OnContentCached once per fetch.
	if load.name == "hit" {
		rep.layer("core.on_hit.ns", float64(rec.onHitNS)/fetches, "per measured fetch")
		rep.layer("core.generated_miss_ratio", float64(rec.generated)/fetches, "generated misses / hits")
	} else {
		rep.layer("core.on_cached.ns", float64(rec.onCachedNS)/fetches, "per measured fetch")
	}
	rep.layer("runtime.alloc_bytes_per_op", float64(allocBytes)/fetches, "harness process (consumer, producer, router and the reference timings) per fetch")
	rep.layer("runtime.gc_cpu_fraction", gcFrac, "harness process during the traced window")
	rep.layer("bench.tracing_overhead", run.p50/ref.p50-1, fmt.Sprintf("traced in-process fetch_p50_us %.1f vs ndnd %.1f", run.p50, ref.p50))
	meanLat := 0.0
	for _, l := range run.measured.latUS {
		meanLat += l * 1e3 / fetches
	}
	selfNS, allNS := spanSelf(rec.spans)
	rep.layer("bench.unexplained_share", 1-sched*(meanWait+meanBusy)/meanLat,
		fmt.Sprintf("of the mean fetch latency %.0f ns, outside executor wait+busy; sampled callbacks spend %.1f%% outside core and netface spans", meanLat, 100*selfNS/allNS))
	writeSpans(cfg.workload, rec.spans)
	rec.mu.Unlock()
	if err := wireLedger(rep, load, cfg.seed, run.measured.sent); err != nil {
		return err
	}
	if err := fwdLedger(cfg.seed, rep, load.capacity, load.name); err != nil {
		return err
	}
	rep.finishLayers()
	return nil
}

// spanSelf sums the self time and duration of the sampled callback spans.
func spanSelf(records []span.Record) (self, all float64) {
	children := map[uint64][]span.Record{}
	for _, r := range records {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	for _, r := range records {
		if r.Kind == "rt" {
			self += float64(selfTime(r, children[r.ID]))
			all += float64(r.End - r.Start)
		}
	}
	return self, all
}

// wireLedger replays the names the traced window sent through the ndn,
// cache and table layers' public functions, on instances configured as
// the router's, timing each call.
func wireLedger(rep *report, load loadSpec, seed int64, sent []ndn.Name) error {
	t := newLayerTimer()
	store, err := cache.NewStore(load.capacity, cache.NewLRU())
	if err != nil {
		return err
	}
	pit, fib := table.NewPIT(), table.NewFIB()
	if err := fib.Insert(benchPrefix, 2); err != nil {
		return err
	}
	dataFor := func(name ndn.Name) (*ndn.Data, error) { return ndn.NewData(name, payloadFor(name, load.payload)) }
	// Fill the store as the router's was when the window began.
	for i := 0; i < load.prefill; i++ {
		name := benchName("f", seed, i)
		if load.catalog > 0 {
			name = benchName("h", seed, i)
		}
		d, err := dataFor(name)
		if err != nil {
			return err
		}
		store.Insert(d, 0, time.Millisecond)
	}
	ev0 := store.Evictions()
	var found, inserts int64
	for i, name := range sent {
		now := time.Duration(i) * time.Microsecond
		in := ndn.NewInterest(name, uint64(i)+1)
		wire := ndn.EncodeInterest(in)
		t.begin("fetch")
		var got *ndn.Interest
		t.do(opDecode, func() { got, err = ndn.DecodeInterest(wire) })
		if err != nil {
			return err
		}
		var e *cache.Entry
		var ok bool
		t.do(opCacheLookup, func() { e, ok = store.Match(got, now) })
		if ok {
			found++
			t.do(opCacheTouch, func() { store.Touch(got.Name) })
			t.do(opEncode, func() { _ = ndn.EncodeData(e.Data) })
			t.end()
			continue
		}
		t.do(opPITInsert, func() { pit.Insert(got, 1, now) })
		t.do(opFIBLookup, func() { _, err = fib.Lookup(got.Name) })
		if err != nil {
			return err
		}
		t.do(opEncode, func() { _ = ndn.EncodeInterest(got) })
		d, err := dataFor(name)
		if err != nil {
			return err
		}
		dataWire := ndn.EncodeData(d)
		var back *ndn.Data
		t.do(opDecode, func() { back, err = ndn.DecodeData(dataWire) })
		if err != nil {
			return err
		}
		t.do(opPITSatisfy, func() { pit.Satisfy(back, now) })
		t.do(opCacheInsert, func() { store.Insert(back, now, time.Millisecond) })
		inserts++
		t.do(opEncode, func() { _ = ndn.EncodeData(back) })
		t.end()
	}
	rep.timerLayers(t, opDecode, opEncode, opCacheLookup)
	rep.layer("cache.hit_ratio", float64(found)/float64(len(sent)), fmt.Sprintf("found / %d lookups", len(sent)))
	if found > 0 {
		rep.timerLayers(t, opCacheTouch)
	}
	if inserts > 0 {
		rep.timerLayers(t, opCacheInsert, opPITInsert, opPITSatisfy, opFIBLookup)
		rep.layer("cache.evictions_per_insert", float64(store.Evictions()-ev0)/float64(inserts), fmt.Sprintf("%d inserts into a full %d-entry store", inserts, load.capacity))
		tableAllocs := t.allocsPer(opPITInsert) + t.allocsPer(opPITSatisfy) + t.allocsPer(opFIBLookup)
		rep.layer("table.allocs_per_fetch", tableAllocs, fmt.Sprintf("from %d+%d+%d counted calls", t.allocN[opPITInsert], t.allocN[opPITSatisfy], t.allocN[opFIBLookup]))
	}
	return nil
}

// fwdLedger times the forwarder alone: an interest injected on an
// AttachCustom face of a forwarder on a netsim executor, until the Data
// reaches that face's send callback. The upstream face answers inline.
// fwd.unexplained.ns is the workload's path total minus the ledger
// layers already reported.
func fwdLedger(seed int64, rep *report, capacity int, path string) error {
	const catalog, fetches = 1024, 100000
	hitNS, hitAllocs, err := fwdPath(seed, capacity, catalog, fetches, true)
	if err != nil {
		return err
	}
	missNS, missAllocs, err := fwdPath(seed, capacity, catalog, fetches, false)
	if err != nil {
		return err
	}
	rep.layer("fwd.hit.ns", hitNS, fmt.Sprintf("mean of %d fetches over a %d-name catalog", fetches, catalog))
	rep.layer("fwd.miss.ns", missNS, fmt.Sprintf("mean of %d new-name fetches into a full %d-entry store", fetches, capacity))
	parts := []string{"cache.lookup.ns", "cache.touch.ns", "core.on_hit.ns"}
	total, allocs := hitNS, hitAllocs
	if path == "miss" {
		parts = []string{"cache.lookup.ns", "table.pit_insert.ns", "table.fib_lookup.ns", "table.pit_satisfy.ns", "cache.insert.ns", "core.on_cached.ns"}
		total, allocs = missNS, missAllocs
	}
	rep.layer("fwd.allocs_per_fetch", allocs, path+" path")
	for _, p := range parts {
		total -= rep.res.Metrics[p].Value
	}
	rep.layer("fwd.unexplained.ns", total, fmt.Sprintf("fwd.%s.ns minus %v", path, parts))
	return nil
}

func fwdPath(seed int64, capacity, catalog, fetches int, hit bool) (ns, allocs float64, err error) {
	sim := netsim.New(seed)
	store, err := cache.NewStore(capacity, cache.NewLRU())
	if err != nil {
		return 0, 0, err
	}
	mgr, err := core.NewDelayManager(core.NewContentSpecificDelay())
	if err != nil {
		return 0, 0, err
	}
	f, err := fwd.New(fwd.Config{Name: "ledger", Sim: sim, Store: store, Manager: mgr})
	if err != nil {
		return 0, 0, err
	}
	var delivered int
	_, down := f.AttachCustom(func(pkt any, _ int) {
		if _, ok := pkt.(*ndn.Data); ok {
			delivered++
		}
	})
	var next *ndn.Data
	var up func(any)
	upID, up := f.AttachCustom(func(pkt any, _ int) {
		if _, ok := pkt.(*ndn.Interest); ok {
			up(next)
		}
	})
	if err := f.RegisterPrefix(benchPrefix, upID); err != nil {
		return 0, 0, err
	}
	fetch := func(in *ndn.Interest, d *ndn.Data) {
		next = d
		down(in)
		sim.Run()
	}
	mk := func(name ndn.Name, nonce int) (*ndn.Interest, *ndn.Data, error) {
		d, err := ndn.NewData(name, payloadFor(name, 32))
		return ndn.NewInterest(name, uint64(nonce)), d, err
	}
	// Warm-up: fill the store (hit: the catalog; miss: to capacity).
	fill := catalog
	if !hit {
		fill = capacity
	}
	for i := 0; i < fill; i++ {
		in, d, err := mk(benchName("f", seed, i), i+1)
		if err != nil {
			return 0, 0, err
		}
		fetch(in, d)
	}
	ins := make([]*ndn.Interest, fetches)
	ds := make([]*ndn.Data, fetches)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(catalog-1))
	for i := range ins {
		name := benchName("m", seed, i)
		if hit {
			name = benchName("f", seed, int(z.Uint64()))
		}
		if ins[i], ds[i], err = mk(name, fill+i+1); err != nil {
			return 0, 0, err
		}
	}
	delivered = 0
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	for i := range ins {
		fetch(ins[i], ds[i])
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&b)
	if delivered != fetches {
		return 0, 0, fmt.Errorf("forwarder ledger delivered %d of %d Data", delivered, fetches)
	}
	return float64(elapsed.Nanoseconds()) / float64(fetches), float64(b.Mallocs-a.Mallocs) / float64(fetches), nil
}
