package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ndnprivacy/internal/telemetry/span"
)

// ndndPath is where run.sh puts the daemon, relative to the checkout root.
var ndndPath = filepath.Join(".bench_build", "ndnd")

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 21

// probeSetupTimes execs this binary in its setup-probe mode setupReps
// times and returns, for each, the seconds from exec until the child
// reported that it was about to make its first driver call.
func probeSetupTimes(workload string, seed int64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "--probe-setup", workload, "--seed", strconv.FormatInt(seed, 10))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start)
		waitErr := cmd.Wait()
		if readErr != nil || strings.TrimSpace(line) != "ready" || waitErr != nil {
			return nil, fmt.Errorf("setup probe: got %q, read %v, exit %v", line, readErr, waitErr)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// probeSetup is the child side: everything a batch run does before its
// first driver call, then "ready". Package initialisation has already
// run by the time main starts, so it counts too.
func probeSetup(workload string, seed int64) error {
	switch workload {
	case "fig5-replay":
		_ = fig5Config(seed)
	case "sim-attack":
		_ = simConfig(seed)
	default:
		return fmt.Errorf("no setup probe for %q", workload)
	}
	fmt.Println("ready")
	return nil
}

// opID names a timed call into one layer's public functions.
type opID int

const (
	opTraceNext opID = iota
	opCacheLookup
	opCacheTouch
	opCacheInsert
	opCoreOnHit
	opCoreOnCached
	opDecode
	opEncode
	opPITInsert
	opPITSatisfy
	opFIBLookup
	nOps
)

// opLayer and opName give each op's module (the span kind) and call.
var opLayer = [nOps]string{"trace", "cache", "cache", "cache", "core", "core", "ndn", "ndn", "table", "table", "table"}
var opName = [nOps]string{"next", "lookup", "touch", "insert", "on_hit", "on_cached", "decode", "encode", "pit_insert", "pit_satisfy", "fib_lookup"}

// allocEvery: one call in allocEvery of each op is bracketed by
// runtime.ReadMemStats to count its allocations exactly, and left out of
// the timing (the stop-the-world read would swamp it).
const allocEvery = 97

// spanEvery: one root in spanEvery records its span tree.
const spanEvery = 512

// layerTimer times calls into layers from outside and keeps a sample of
// span trees in memory. A nil *layerTimer just makes the calls.
type layerTimer struct {
	base     time.Time
	ns, n    [nOps]int64
	allocs   [nOps]uint64
	allocN   [nOps]int64
	calls    [nOps]int64
	overhead float64 // mean cost of timing an empty call, subtracted

	roots    int64
	root     *span.Record // open sampled root, if any
	spans    []span.Record
	nextID   uint64
	rootSelf time.Duration // self time of sampled roots
	rootAll  time.Duration // duration of sampled roots
}

func newLayerTimer() *layerTimer {
	t := &layerTimer{base: time.Now()}
	const calib = 200000
	for i := 0; i < calib; i++ {
		t.do(opTraceNext, func() {})
	}
	t.overhead = float64(t.ns[opTraceNext]) / float64(t.n[opTraceNext])
	t.ns, t.n, t.calls, t.allocs, t.allocN = [nOps]int64{}, [nOps]int64{}, [nOps]int64{}, [nOps]uint64{}, [nOps]int64{}
	return t
}

func (t *layerTimer) now() int64 { return int64(time.Since(t.base)) }

func (t *layerTimer) do(op opID, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.calls[op]++
	if t.calls[op]%allocEvery == 0 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		t.allocs[op] += b.Mallocs - a.Mallocs
		t.allocN[op]++
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	t.ns[op] += int64(end.Sub(start))
	t.n[op]++
	if t.root != nil {
		t.nextID++
		t.spans = append(t.spans, span.Record{Trace: t.root.Trace, ID: t.nextID, Parent: t.root.ID,
			Kind: opLayer[op], Name: opName[op], Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	}
}

// begin opens a root span (one request or fetch) when it is sampled.
func (t *layerTimer) begin(kind string) {
	if t == nil {
		return
	}
	t.roots++
	if t.roots%spanEvery != 0 {
		return
	}
	t.nextID++
	t.root = &span.Record{Trace: uint64(t.roots), ID: t.nextID, Kind: kind, Start: t.now()}
}

// end closes the open root and accumulates its self time.
func (t *layerTimer) end() {
	if t == nil || t.root == nil {
		return
	}
	t.root.End = t.now()
	var children []span.Record
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Trace == t.root.Trace; i-- {
		children = append(children, t.spans[i])
	}
	t.rootSelf += time.Duration(selfTime(*t.root, children))
	t.rootAll += time.Duration(t.root.End - t.root.Start)
	t.spans = append(t.spans, *t.root)
	t.root = nil
}

// meanNS is the mean timed cost of op, less the timer's own cost.
func (t *layerTimer) meanNS(op opID) float64 {
	if t.n[op] == 0 {
		return 0
	}
	return max(0, float64(t.ns[op])/float64(t.n[op])-t.overhead)
}

// allocsPer is the mean allocation count of op's sampled calls.
func (t *layerTimer) allocsPer(op opID) float64 {
	if t.allocN[op] == 0 {
		return 0
	}
	return float64(t.allocs[op]) / float64(t.allocN[op])
}

// covered estimates the total time all calls of every op took, less
// the timer's cost.
func (t *layerTimer) covered() time.Duration {
	var sum float64
	for op := opID(0); op < nOps; op++ {
		sum += t.meanNS(op) * float64(t.calls[op])
	}
	return time.Duration(sum)
}

// writeSpans writes the sampled span trees as NDJSON under .bench_build.
func writeSpans(name string, records []span.Record) {
	if len(records) == 0 {
		return
	}
	path := filepath.Join(".bench_build", "spans-"+name+".ndjson")
	if err := span.WriteFile(path, records); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		return
	}
	fmt.Printf("# spans: %d records (sampled) in %s\n", len(records), path)
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"ndn.decode.ns", "ns"}, {"ndn.decode.allocs", "allocs"},
	{"ndn.encode.ns", "ns"}, {"ndn.encode.allocs", "allocs"},
	{"cache.lookup.ns", "ns"}, {"cache.lookup.allocs", "allocs"}, {"cache.touch.ns", "ns"},
	{"cache.insert.ns", "ns"}, {"cache.insert.allocs", "allocs"}, {"cache.evictions_per_insert", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"core.on_hit.ns", "ns"}, {"core.on_cached.ns", "ns"}, {"core.generated_miss_ratio", "ratio"},
	{"table.pit_insert.ns", "ns"}, {"table.pit_satisfy.ns", "ns"}, {"table.fib_lookup.ns", "ns"},
	{"table.allocs_per_fetch", "allocs"},
	{"fwd.hit.ns", "ns"}, {"fwd.miss.ns", "ns"}, {"fwd.allocs_per_fetch", "allocs"}, {"fwd.unexplained.ns", "ns"},
	{"rt.wait_p50.ns", "ns"}, {"rt.wait_p99.ns", "ns"}, {"rt.busy.ns", "ns"},
	{"rt.schedules_per_fetch", "count"}, {"rt.utilization", "ratio"},
	{"netface.writes_per_fetch", "count"}, {"netface.reads_per_fetch", "count"},
	{"netface.write.ns", "ns"}, {"netface.bytes_per_fetch", "bytes"},
	{"trace.next.ns", "ns"}, {"trace.next.allocs", "allocs"},
	{"netsim.events_per_probe", "count"}, {"netsim.dispatch.ns", "ns"},
	{"attack.scenario.s", "s"},
	{"stats.threshold.ns", "ns"}, {"stats.threshold.samples", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"}, {"runtime.gc_cpu_fraction", "ratio"},
	{"bench.tracing_overhead", "ratio"}, {"bench.unexplained_share", "ratio"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// layer records one per-layer metric under its declared unit.
func (r *report) layer(name string, value float64, note string) {
	r.set(name, value, unitOf(name), note)
}

// timerLayers records the metrics a layerTimer measured for the ops
// listed.
func (r *report) timerLayers(t *layerTimer, ops ...opID) {
	for _, op := range ops {
		base := opLayer[op] + "." + opName[op]
		r.layer(base+".ns", t.meanNS(op), fmt.Sprintf("mean of %d timed calls", t.n[op]))
		switch op {
		case opTraceNext, opCacheLookup, opCacheInsert, opDecode, opEncode:
			r.layer(base+".allocs", t.allocsPer(op), fmt.Sprintf("mean of %d counted calls", t.allocN[op]))
		}
	}
}

// finishLayers reports 0 for every per-layer metric the workload does
// not exercise, so each traced result carries the full set.
func (r *report) finishLayers() {
	for _, m := range perLayer {
		if _, ok := r.res.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit, "not exercised by this workload")
		}
	}
}

// memDelta measures the bytes allocated across fn and the share of the
// process's CPU time the garbage collector took meanwhile.
func memDelta(fn func() error) (allocBytes uint64, gcFrac float64, err error) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() [3]float64 {
		metrics.Read(samples)
		return [3]float64{float64(samples[0].Value.Uint64()), samples[1].Value.Float64(), samples[2].Value.Float64()}
	}
	before := read()
	err = fn()
	after := read()
	if cpu := after[2] - before[2]; cpu > 0 {
		gcFrac = (after[1] - before[1]) / cpu
	}
	return uint64(after[0] - before[0]), gcFrac, err
}

// refTime is one timing of the reference kernel.
type refTime struct {
	wall, cpu float64 // seconds
}

// refSink keeps the reference kernel's result live.
var refSink int

// refKernel times a fixed single-threaded computation (fill, hash-map
// update and sort of 200,000 pseudo-random integers) whose wall and CPU
// time are the benchmark's reference units (ru). Timed between the
// measured units of work, it tracks how fast this machine runs at that
// moment, so ratios to it cancel the drift of a shared machine. It must
// never change: that would rescale every ru metric.
func refKernel() refTime {
	start, cpu := time.Now(), selfCPU()
	r := rand.New(rand.NewSource(1))
	m := make(map[int64]int64, 1<<14)
	xs := make([]int64, 200000)
	for i := range xs {
		xs[i] = r.Int63()
		m[xs[i]&0xffff] += xs[i]
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	refSink = len(m) + int(xs[0]&1)
	return refTime{wall: time.Since(start).Seconds(), cpu: (selfCPU() - cpu).Seconds()}
}

// between returns the mean of two reference timings: the unit of work
// timed between them is normalised by it.
func between(a, b refTime) refTime {
	return refTime{wall: (a.wall + b.wall) / 2, cpu: (a.cpu + b.cpu) / 2}
}
