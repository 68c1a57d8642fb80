package main

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ndnprivacy/internal/ndn"
)

// loadSpec is one loopback traffic mix.
type loadSpec struct {
	name     string
	capacity int // ndnd -capacity
	payload  int // Data payload bytes
	// catalog > 0: measured names are Zipf-drawn from this many names,
	// all fetched before timing. catalog == 0: every measured name is
	// new, and prefill names fill the store before timing.
	catalog int
	prefill int
}

var (
	// hitLoad: a catalog half the store's size, so every measured fetch
	// is a CS hit on public data.
	hitLoad = loadSpec{name: "hit", capacity: 4096, payload: 32, catalog: 2048, prefill: 2048}
	// missLoad: the store is filled to capacity first, then every
	// measured fetch misses, goes upstream and evicts on insert.
	missLoad = loadSpec{name: "miss", capacity: 65536, payload: 1024, prefill: 65536}
)

// Closed loop: conns consumer connections, each keeping depth interests
// outstanding (nproc = 2, so two connections at most).
const (
	conns      = 2
	depth      = 8
	replyLimit = 5 * time.Second // no reply for this long: the outstanding fetches failed
	blockSize  = 4096            // fetches per wall_s block
	zipfS      = 1.1
)

var benchPrefix = ndn.MustParseName("/bench")

func benchName(kind string, seed int64, i int) ndn.Name {
	return benchPrefix.AppendString(kind, strconv.FormatInt(seed, 10), strconv.Itoa(i))
}

// payloadByte is byte i of the producer's payload for a name with hash h.
func payloadByte(h uint64, i int) byte { return byte(h>>(8*(i%8))) ^ byte(i) }

func payloadFor(name ndn.Name, size int) []byte {
	h := name.Hash()
	p := make([]byte, size)
	for i := range p {
		p[i] = payloadByte(h, i)
	}
	return p
}

func payloadOK(name ndn.Name, p []byte, size int) bool {
	if len(p) != size {
		return false
	}
	h := name.Hash()
	for i, b := range p {
		if b != payloadByte(h, i) {
			return false
		}
	}
	return true
}

// producer answers every interest on every connection with a Data
// carrying the interest's name and payloadFor(name).
type producer struct {
	ln     net.Listener
	size   int
	served atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func startProducer(size int) (*producer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &producer{ln: ln, size: size}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			p.wg.Add(1)
			go p.serve(c)
		}
	}()
	return p, nil
}

func (p *producer) addr() string { return p.ln.Addr().String() }

func (p *producer) serve(c net.Conn) {
	defer p.wg.Done()
	r := ndn.NewPacketReader(c)
	w := bufio.NewWriter(c)
	for {
		pkt, err := r.Next()
		if err != nil {
			return
		}
		if pkt.Interest == nil {
			continue
		}
		d, err := ndn.NewData(pkt.Interest.Name, payloadFor(pkt.Interest.Name, p.size))
		if err != nil {
			return
		}
		if _, err := w.Write(ndn.EncodeData(d)); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		p.served.Add(1)
	}
}

// close stops accepting, closes every connection and waits for the
// serving goroutines.
func (p *producer) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// daemon is one ndnd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	listen  string
	drained chan struct{}
}

// startDaemon execs ndnd routed to the producer and waits until it
// listens.
func startDaemon(capacity int, upstream string) (*daemon, error) {
	cmd := exec.Command(ndndPath, "-listen", "127.0.0.1:0", "-capacity", strconv.Itoa(capacity),
		"-route", benchPrefix.String()+"="+upstream)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case d.listen = <-addr:
		return d, nil
	case <-d.drained:
	case <-time.After(10 * time.Second):
	}
	d.stop()
	return nil, errors.New("ndnd did not report a listen address")
}

func (d *daemon) pid() int     { return d.cmd.Process.Pid }
func (d *daemon) addr() string { return d.listen }

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// connStats is one consumer connection's tally.
type connStats struct {
	attempted, ok, failed int64
	latUS                 []float64 // per successful fetch
	sent                  []ndn.Name
}

type pending struct {
	key  string
	name ndn.Name
	sent time.Time
}

// loopConfig parameterises closedLoop.
type loopConfig struct {
	deadline time.Time // no interest is sent after it
	payload  int       // expected payload size
	limit    time.Duration
	nonce    *atomic.Uint64
	record   bool // keep the names sent
}

// closedLoop drives one connection: it keeps depth interests
// outstanding, drawing names from next, until next reports no more or
// the deadline passes, then waits for the outstanding replies. Every
// Data must carry the name of an outstanding interest and that name's
// exact payload. A reply with the wrong payload fails its fetch; when no
// reply arrives within the limit, every outstanding fetch fails. A Data
// that answers no outstanding name (a corrupted name, say) leaves the
// interest it was meant for outstanding, so that fetch fails too.
func closedLoop(conn net.Conn, next func() (ndn.Name, bool), cfg loopConfig) connStats {
	var st connStats
	w := bufio.NewWriter(conn)
	r := ndn.NewPacketReader(conn)
	var out []pending
	send := func() bool {
		if !time.Now().Before(cfg.deadline) {
			return false
		}
		name, more := next()
		if !more {
			return false
		}
		in := ndn.NewInterest(name, cfg.nonce.Add(1))
		if _, err := w.Write(ndn.EncodeInterest(in)); err != nil {
			return false
		}
		st.attempted++
		out = append(out, pending{key: name.Key(), name: name, sent: time.Now()})
		if cfg.record {
			st.sent = append(st.sent, name)
		}
		return true
	}
	for len(out) < depth && send() {
	}
	for len(out) > 0 {
		if err := w.Flush(); err != nil {
			break
		}
		if err := conn.SetReadDeadline(time.Now().Add(cfg.limit)); err != nil {
			break
		}
		pkt, err := r.Next()
		if err != nil {
			break
		}
		now := time.Now()
		if pkt.Data == nil {
			continue
		}
		key := pkt.Data.Name.Key()
		i := 0
		for i < len(out) && out[i].key != key {
			i++
		}
		if i == len(out) {
			continue
		}
		p := out[i]
		out = append(out[:i], out[i+1:]...)
		if payloadOK(p.name, pkt.Data.Payload, cfg.payload) {
			st.ok++
			st.latUS = append(st.latUS, float64(now.Sub(p.sent).Nanoseconds())/1e3)
		} else {
			st.failed++
		}
		for len(out) < depth && send() {
		}
	}
	st.failed += int64(len(out))
	return st
}

// loadResult is one closed-loop phase over all connections.
type loadResult struct {
	connStats
	elapsed time.Duration
}

// drive runs closedLoop on every connection at once and merges the
// tallies. nexts gives each connection its name source.
func drive(cs []net.Conn, nexts []func() (ndn.Name, bool), window time.Duration, payload int, nonce *atomic.Uint64, record bool) loadResult {
	base := time.Now()
	cfg := loopConfig{deadline: base.Add(window), payload: payload, limit: replyLimit, nonce: nonce, record: record}
	res := make([]connStats, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = closedLoop(cs[i], nexts[i], cfg)
		}(i)
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(base)}
	for _, r := range res {
		out.attempted += r.attempted
		out.ok += r.ok
		out.failed += r.failed
		out.latUS = append(out.latUS, r.latUS...)
		out.sent = append(out.sent, r.sent...)
	}
	return out
}

// sequence returns a name source shared by all connections that yields
// names(0..n-1) once each (n < 0: without end).
func sequence(n int, name func(int) ndn.Name) func() (ndn.Name, bool) {
	var i atomic.Int64
	return func() (ndn.Name, bool) {
		k := int(i.Add(1) - 1)
		if n >= 0 && k >= n {
			return ndn.Name{}, false
		}
		return name(k), true
	}
}

// measuredNames returns each connection's name source for the measured
// window.
func measuredNames(load loadSpec, seed int64) []func() (ndn.Name, bool) {
	nexts := make([]func() (ndn.Name, bool), conns)
	if load.catalog > 0 {
		catalog := make([]ndn.Name, load.catalog)
		for i := range catalog {
			catalog[i] = benchName("h", seed, i)
		}
		for c := range nexts {
			z := rand.NewZipf(rand.New(rand.NewSource(seed*conns+int64(c))), zipfS, 1, uint64(load.catalog-1))
			nexts[c] = func() (ndn.Name, bool) { return catalog[z.Uint64()], true }
		}
		return nexts
	}
	shared := sequence(-1, func(i int) ndn.Name { return benchName("m", seed, i) })
	for c := range nexts {
		nexts[c] = shared
	}
	return nexts
}

// prefillNames is the sequence fetched before timing.
func prefillNames(load loadSpec, seed int64) []func() (ndn.Name, bool) {
	kind := "f"
	if load.catalog > 0 {
		kind = "h"
	}
	shared := sequence(load.prefill, func(i int) ndn.Name { return benchName(kind, seed, i) })
	nexts := make([]func() (ndn.Name, bool), conns)
	for c := range nexts {
		nexts[c] = shared
	}
	return nexts
}

func dialAll(addr string) ([]net.Conn, error) {
	var cs []net.Conn
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []net.Conn) {
	for _, c := range cs {
		c.Close()
	}
}

// firstFetch dials addr and fetches one name; it returns when the Data
// arrives.
func firstFetch(addr string, name ndn.Name, payload int, nonce *atomic.Uint64) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	now := time.Now()
	st := closedLoop(c, sequence(1, func(int) ndn.Name { return name }),
		loopConfig{deadline: now.Add(time.Hour), payload: payload, limit: replyLimit, nonce: nonce})
	if st.ok != 1 {
		return fmt.Errorf("first fetch of %s failed", name)
	}
	return nil
}

// router is the system under test: where the consumers connect and
// which process does the forwarding.
type router interface {
	addr() string
	pid() int
}

// loopbackRun is one measured loopback phase and what it observed.
type loopbackRun struct {
	load     loadSpec
	prefill  loadResult
	measured loadResult // all sub-windows merged
	served   int64      // producer interests during the measured window
	rssMB    float64
	setupS   []float64
	p50, p99 float64
	// Per sub-window: seconds per block of blockSize fetches, the
	// router's CPU microseconds per fetch, and both over the adjacent
	// reference timings.
	blockWall, cpuPerFetch []float64
	wallRU, cpuRU          []float64
	refs                   []refTime
}

// subWindows is how many parts a measured window is cut into. The
// reference kernel is timed before each part and after the last, while
// no fetch is in flight.
const subWindows = 10

// measure prefills the router, then runs the measured window in
// sub-windows and reads the router process's CPU time around each, and
// its peak RSS at the end. atWindow, when set, runs just before the
// window starts; record keeps the names sent.
func measure(rt router, prod *producer, load loadSpec, seed int64, window time.Duration, nonce *atomic.Uint64, record bool, atWindow func()) (*loopbackRun, error) {
	cs, err := dialAll(rt.addr())
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	run := &loopbackRun{load: load}
	run.prefill = drive(cs, prefillNames(load, seed), time.Hour, load.payload, nonce, false)
	if atWindow != nil {
		atWindow()
	}
	served0 := prod.served.Load()
	nexts := measuredNames(load, seed)
	run.refs = []refTime{refKernel()}
	m := &run.measured
	for k := 0; k < subWindows; k++ {
		cpu0, err := procCPU(rt.pid())
		if err != nil {
			return nil, err
		}
		part := drive(cs, nexts, window/subWindows, load.payload, nonce, record)
		cpu1, err := procCPU(rt.pid())
		if err != nil {
			return nil, err
		}
		run.refs = append(run.refs, refKernel())
		if part.ok == 0 {
			return nil, fmt.Errorf("sub-window %d completed no fetch", k)
		}
		ref := between(run.refs[k], run.refs[k+1])
		block := part.elapsed.Seconds() / float64(part.ok) * blockSize
		cpuUS := float64((cpu1 - cpu0).Microseconds()) / float64(part.ok)
		run.blockWall = append(run.blockWall, block)
		run.cpuPerFetch = append(run.cpuPerFetch, cpuUS)
		run.wallRU = append(run.wallRU, block/ref.wall)
		run.cpuRU = append(run.cpuRU, cpuUS*1e3/1e6/ref.cpu)
		m.attempted += part.attempted
		m.ok += part.ok
		m.failed += part.failed
		m.elapsed += part.elapsed
		m.latUS = append(m.latUS, part.latUS...)
		m.sent = append(m.sent, part.sent...)
	}
	run.served = prod.served.Load() - served0
	if run.rssMB, err = peakRSSMB(strconv.Itoa(rt.pid())); err != nil {
		return nil, err
	}
	lat := sortedCopy(m.latUS)
	run.p50, run.p99 = percentile(lat, 50), percentile(lat, 99)
	return run, nil
}

// checkLoopback applies the loopback output checks and counts the
// fetches.
func checkLoopback(rep *report, run *loopbackRun) {
	p, m := run.prefill, run.measured
	rep.ops(p.attempted+m.attempted, p.failed+m.failed)
	rep.check(p.failed == 0 && p.ok == int64(run.load.prefill), "prefill: %d of %d fetches ok, %d failed", p.ok, run.load.prefill, p.failed)
	rep.check(m.failed == 0, "%d of %d measured fetches failed", m.failed, m.attempted)
	if run.load.catalog > 0 {
		rep.check(run.served == 0, "producer served %d interests during the hit window, want 0", run.served)
	} else {
		rep.check(run.served == m.ok, "producer served %d interests for %d fetches, want one each", run.served, m.ok)
	}
	rep.check(m.ok >= blockSize, "only %d fetches completed, under one block of %d", m.ok, blockSize)
}

// reportLatency prints the fetch latency percentiles with their sample
// counts. They are not part of the JSON result (see README.md).
func reportLatency(run *loopbackRun) {
	n := len(run.measured.latUS)
	hp, _ := highestPercentile(n)
	lat := sortedCopy(run.measured.latUS)
	fmt.Printf("%-34s %14.6g %-9s n=%d\n", "fetch_p50_us", run.p50, "us", n)
	fmt.Printf("%-34s %14.6g %-9s n=%d (highest percentile with >=10 samples beyond it: p%g = %.6g us)\n",
		"fetch_p99_us", run.p99, "us", n, hp, percentile(lat, hp))
}

// startDaemons execs ndnd setupReps times, each time timing exec to the
// first Data, and keeps the last one running.
func startDaemons(load loadSpec, prod *producer, seed int64, nonce *atomic.Uint64) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		d, err := startDaemon(load.capacity, prod.addr())
		if err != nil {
			return nil, nil, err
		}
		if err := firstFetch(d.addr(), benchName("s", seed, i), load.payload, nonce); err != nil {
			d.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupReps-1 {
			return d, setups, nil
		}
		d.stop()
	}
	return nil, nil, errors.New("unreachable")
}

// quietHarness makes the load generator collect less often, so its GC
// takes less CPU from ndnd on a small machine.
func quietHarness() {
	debug.SetGCPercent(400)
}

// daemonPhase sets up ndnd and measures it for window.
func daemonPhase(load loadSpec, seed int64, window time.Duration) (*loopbackRun, error) {
	prod, err := startProducer(load.payload)
	if err != nil {
		return nil, err
	}
	defer prod.close()
	var nonce atomic.Uint64
	nonce.Store(uint64(seed) << 32)
	d, setups, err := startDaemons(load, prod, seed, &nonce)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run, err := measure(d, prod, load, seed, window, &nonce, false, nil)
	if err != nil {
		return nil, err
	}
	run.setupS = setups
	return run, nil
}

func runLoopback(cfg config, rep *report, load loadSpec) error {
	quietHarness()
	run, err := daemonPhase(load, cfg.seed, cfg.window())
	if err != nil {
		return err
	}
	checkLoopback(rep, run)
	m := run.measured
	rep.set("setup_s", median(run.setupS), "s", fmt.Sprintf("median of %d ndnd execs, exec to first Data", len(run.setupS)))
	rep.set("wall_ru", median(run.wallRU), "ru", fmt.Sprintf("median of %d sub-windows: seconds per %d fetches / reference wall seconds", len(run.wallRU), blockSize))
	rep.set("router_cpu_ru_per_kfetch", median(run.cpuRU), "ru", fmt.Sprintf("median of %d sub-windows: ndnd CPU seconds per 1000 fetches / reference CPU seconds", len(run.cpuRU)))
	rep.set("rss_peak_mb", run.rssMB, "MB", "ndnd VmHWM")
	rep.show("wall_s", median(run.blockWall), "s", fmt.Sprintf("median of %d sub-windows: seconds per %d fetches", len(run.blockWall), blockSize))
	rep.show("fetch_per_s", float64(m.ok)/m.elapsed.Seconds(), "1/s", fmt.Sprintf("%d fetches in %.3fs, closed loop %d conns x %d outstanding", m.ok, m.elapsed.Seconds(), conns, depth))
	rep.show("router_cpu_us_per_fetch", median(run.cpuPerFetch), "us", fmt.Sprintf("median of %d sub-windows: ndnd utime+stime from /proc per fetch", len(run.cpuPerFetch)))
	reportLatency(run)
	rep.reference(run.refs)
	return nil
}
