package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ndnprivacy/internal/attack"
	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/core"
	"ndnprivacy/internal/experiments"
	"ndnprivacy/internal/ndn"
	"ndnprivacy/internal/netsim"
	"ndnprivacy/internal/stats"
	"ndnprivacy/internal/sweep"
	"ndnprivacy/internal/trace"
)

// defaultSeed is the seed the committed digests were taken at.
const defaultSeed = 1

// Committed digests of the rendered outputs at defaultSeed. A change that
// alters a figure must say so and update the digest.
const (
	fig5Digest = "3773adf66e383085"
	simDigest  = "1088f1db732db8c9"
)

// fig5Requests sizes one replay: with the paper's cache sizes scaled to
// it, the smallest cache stays above the 16-entry floor and one serial
// pass of the 5(a) grid plus the ablation takes about two seconds.
const fig5Requests = 20000

func fig5Config(seed int64) experiments.Figure5Config {
	return experiments.Figure5Config{Seed: seed, Requests: fig5Requests, K: 5, Epsilon: 0.005,
		PrivateFraction: 0.1, CacheSizes: experiments.ScaledCacheSizes(fig5Requests), Parallel: 1}
}

func ablationConfig(seed int64) experiments.AblationConfig {
	return experiments.AblationConfig{Seed: seed, Requests: fig5Requests, Parallel: 1}
}

// fig5Pass runs the Figure 5(a) grid and the eviction ablation once and
// returns the digest of the rendered tables and the requests replayed.
func fig5Pass(seed int64) (string, int64, error) {
	fig, err := experiments.Figure5a(fig5Config(seed))
	if err != nil {
		return "", 0, err
	}
	abl, err := experiments.RunEvictionAblationSweep(ablationConfig(seed))
	if err != nil {
		return "", 0, err
	}
	if len(fig.Rows) != 4*len(fig.Config.CacheSizes) || len(abl.Rows) != 9 {
		return "", 0, fmt.Errorf("figure 5: %d grid rows and %d ablation rows", len(fig.Rows), len(abl.Rows))
	}
	return digest(fig.Render() + abl.Render()), int64(len(fig.Rows)+len(abl.Rows)) * fig5Requests, nil
}

// Simulator scale of sim-attack: Figure 3's scenarios at 300 objects × 15
// runs instead of the paper's 1,000 × 50, so one pass takes about a second.
const (
	simObjects = 300
	simRuns    = 15
)

func simConfig(seed int64) experiments.Figure3Config {
	return experiments.Figure3Config{Seed: seed, Objects: simObjects, Runs: simRuns, Parallel: 1}
}

var figure3 = []struct {
	name string
	run  func(experiments.Figure3Config) (*experiments.Figure3Result, error)
}{
	{"3a", experiments.Figure3a}, {"3b", experiments.Figure3b},
	{"3c", experiments.Figure3c}, {"3d", experiments.Figure3d},
}

// simPass runs Figure 3(a–d) and the tiered three-way attack once and
// returns the digest of their accuracies and residuals and the number of
// probes the adversary made.
func simPass(seed int64) (string, int64, error) {
	cfg := simConfig(seed)
	var b strings.Builder
	var probes int64
	for _, f := range figure3 {
		r, err := f.run(cfg)
		if err != nil {
			return "", 0, fmt.Errorf("figure %s: %w", f.name, err)
		}
		fmt.Fprintf(&b, "%s acc=%.6f threshold=%.6f hit=%d miss=%d\n",
			f.name, r.Result.Accuracy, r.Result.Threshold, len(r.Result.Hit), len(r.Result.Miss))
		probes += int64(len(r.Result.Hit) + len(r.Result.Miss))
	}
	tier, err := experiments.RunTieredTiming(cfg)
	if err != nil {
		return "", 0, err
	}
	fmt.Fprintf(&b, "tier acc=%.6f t1=%.6f t2=%.6f\n", tier.Base.Accuracy, tier.Base.T1, tier.Base.T2)
	for _, row := range tier.Rows {
		fmt.Fprintf(&b, "tier %s acc=%.6f t1=%.6f t2=%.6f\n", row.Name, row.Accuracy, row.T1, row.T2)
	}
	perRun := int64(len(tier.Base.RAMHit) + len(tier.Base.DiskHit) + len(tier.Base.Miss))
	probes += perRun * int64(1+len(tier.Rows))
	return digest(b.String()), probes, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// batchRun is the end-to-end run of a batch workload: set-up probes,
// then passes until the window is spent (at least three), each pass
// between two timings of the reference kernel, then checks.
func batchRun(cfg config, rep *report, pass func(int64) (string, int64, error), committed string) error {
	setups, err := probeSetupTimes(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	var walls, cpuPerFetch, wallRU, cpuRU []float64
	var digests []string
	var ops int64
	refs := []refTime{refKernel()}
	start := time.Now()
	for time.Since(start) < cfg.window() || len(walls) < 3 {
		t, cpu := time.Now(), selfCPU()
		d, n, err := pass(cfg.seed)
		wall, cpuUS := time.Since(t).Seconds(), float64((selfCPU()-cpu).Microseconds())/float64(n)
		refs = append(refs, refKernel())
		ref := between(refs[len(refs)-2], refs[len(refs)-1])
		walls, cpuPerFetch = append(walls, wall), append(cpuPerFetch, cpuUS)
		wallRU, cpuRU = append(wallRU, wall/ref.wall), append(cpuRU, cpuUS*1e3/1e6/ref.cpu)
		rep.ops(1, 0)
		rep.check(err == nil, "pass %d: %v", len(walls), err)
		digests = append(digests, d)
		ops += n
	}
	for i, d := range digests {
		rep.check(d == digests[0], "pass %d digest %s differs from pass 1's %s: output is not deterministic", i+1, d, digests[0])
	}
	if cfg.seed == defaultSeed {
		rep.check(digests[0] == committed, "digest %s at the default seed, committed %s", digests[0], committed)
	}
	rep.note("output digest %s over %d passes; pass seconds %.3f", digests[0], len(digests), walls)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d execs, exec to first driver call", len(setups)))
	rep.set("wall_ru", median(wallRU), "ru", fmt.Sprintf("median of %d serial passes: pass seconds / reference wall seconds", len(wallRU)))
	rep.set("router_cpu_ru_per_kfetch", median(cpuRU), "ru", fmt.Sprintf("median of %d passes: harness CPU seconds (the simulated router runs in-process) per 1000 simulated fetches / reference CPU seconds", len(cpuRU)))
	rep.set("rss_peak_mb", rss, "MB", "VmHWM of the harness process")
	rep.show("wall_s", median(walls), "s", fmt.Sprintf("median of %d serial passes", len(walls)))
	var sum float64
	for _, w := range walls {
		sum += w
	}
	rep.show("fetch_per_s", float64(ops)/sum, "1/s", fmt.Sprintf("simulated fetches (%d) per second of pass time", ops))
	rep.show("router_cpu_us_per_fetch", median(cpuPerFetch), "us", fmt.Sprintf("median of %d passes", len(cpuPerFetch)))
	for _, name := range []string{"fetch_p50_us", "fetch_p99_us"} {
		fmt.Printf("%-34s %14s %-9s n=0: a simulated fetch has no wall-clock latency of its own\n", name, "n/a", "us")
	}
	rep.reference(refs)
	return nil
}

func runFig5(cfg config, rep *report) error {
	if err := batchRun(cfg, rep, fig5Pass, fig5Digest); err != nil {
		return err
	}
	fig, abl, err := fig5Rows(cfg.seed)
	if err != nil {
		return err
	}
	_, err = fig5Ledger(cfg.seed, fig, abl, rep, nil)
	return err
}

// fig5Rows runs the two drivers for the rows the ledger checks against.
func fig5Rows(seed int64) (*experiments.Figure5aResult, *experiments.EvictionAblationResult, error) {
	fig, err := experiments.Figure5a(fig5Config(seed))
	if err != nil {
		return nil, nil, err
	}
	abl, err := experiments.RunEvictionAblationSweep(ablationConfig(seed))
	return fig, abl, err
}

func runSimAttack(cfg config, rep *report) error {
	return batchRun(cfg, rep, simPass, simDigest)
}

// replayCounts is one replayed cell's outcome tally.
type replayCounts struct {
	requests, hits, disguised, generated, real, inserts, evictions uint64
}

// ledgerReplay replays a generator's requests through a fresh store and
// manager by the same steps trace.Replay takes, timing each layer call
// with t (nil: untimed).
func ledgerReplay(gen *trace.Generator, size int, policy string, mgr core.CacheManager, t *layerTimer) (replayCounts, error) {
	pol, ok := cache.NewPolicy(policy)
	if !ok {
		return replayCounts{}, fmt.Errorf("unknown policy %q", policy)
	}
	store, err := cache.NewStore(size, pol)
	if err != nil {
		return replayCounts{}, err
	}
	const upstream = 50 * time.Millisecond
	gen.Reset()
	interest := ndn.NewInterest(ndn.Name{}, 0)
	payload := []byte("x")
	var c replayCounts
	insert := func(data *ndn.Data, at time.Duration) {
		var e *cache.Entry
		t.do(opCacheInsert, func() { e = store.Insert(data, at, upstream) })
		t.do(opCoreOnCached, func() { mgr.OnContentCached(e, upstream, at) })
		c.inserts++
	}
	for {
		var req trace.Request
		var more bool
		t.begin("replay")
		t.do(opTraceNext, func() { req, more = gen.Next() })
		if !more {
			t.end()
			break
		}
		c.requests++
		interest.Name, interest.Nonce = req.Name, c.requests
		var entry *cache.Entry
		var found bool
		t.do(opCacheLookup, func() { entry, found = store.Exact(req.Name, req.At) })
		if !found {
			c.real++
			d, err := ndn.NewData(req.Name, payload)
			if err != nil {
				return c, err
			}
			d.Private = req.Private
			insert(d, req.At)
			t.end()
			continue
		}
		t.do(opCacheTouch, func() { store.Touch(req.Name) })
		var dec core.Decision
		t.do(opCoreOnHit, func() { dec = mgr.OnCacheHit(entry, interest, req.At) })
		switch dec.Action {
		case core.ActionServe:
			c.hits++
		case core.ActionDelayedServe:
			c.disguised++
		case core.ActionMiss:
			c.generated++
			insert(entry.Data, req.At)
		}
		t.end()
	}
	c.evictions = store.Evictions()
	return c, nil
}

// fig5Managers builds the Figure 5(a) managers as the experiments
// package does, each with its cell's derived seed.
func fig5Manager(cfg experiments.Figure5Config, algo string, seed int64) (core.CacheManager, error) {
	rng := rand.New(rand.NewSource(seed))
	alpha, err := core.GeometricAlphaForEpsilon(cfg.K, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	switch algo {
	case "No Privacy":
		return core.NewNoPrivacy(), nil
	case "Exponential-Random-Cache":
		dist, err := core.NewGeometricUnbounded(alpha)
		if err != nil {
			return nil, err
		}
		return core.NewRandomCache(dist, rng)
	case "Uniform-Random-Cache":
		dist, err := core.NewUniformForPrivacy(cfg.K, core.ExponentialPrivacy(cfg.K, alpha, 0).Delta)
		if err != nil {
			return nil, err
		}
		return core.NewRandomCache(dist, rng)
	default:
		return core.NewDelayManager(core.NewContentSpecificDelay())
	}
}

var fig5Algorithms = []string{"No Privacy", "Exponential-Random-Cache", "Uniform-Random-Cache", "Always Delay Private Content"}

// fig5Ledger replays every cell of the 5(a) grid and the ablation through
// ledgerReplay, checks that each cell's hits, disguised hits, generated
// misses and real misses add up to its requests and that its hit rate is
// the driver's, and returns the tally over all cells.
func fig5Ledger(seed int64, fig *experiments.Figure5aResult, abl *experiments.EvictionAblationResult, rep *report, t *layerTimer) (replayCounts, error) {
	cfg := fig5Config(seed)
	var total replayCounts
	cell := func(label string, genCfg trace.GeneratorConfig, size int, policy string, mgr core.CacheManager, want float64) error {
		gen, err := trace.NewGenerator(genCfg)
		if err != nil {
			return err
		}
		c, err := ledgerReplay(gen, size, policy, mgr, t)
		if err != nil {
			return err
		}
		rep.ops(1, 0)
		rep.check(c.hits+c.disguised+c.generated+c.real == c.requests && c.requests == fig5Requests,
			"%s: %d hits + %d disguised + %d generated + %d real misses != %d requests",
			label, c.hits, c.disguised, c.generated, c.real, c.requests)
		got := 100 * float64(c.hits) / float64(c.requests)
		rep.check(got == want, "%s: ledger hit rate %.4f, driver %.4f", label, got, want)
		total.requests += c.requests
		total.hits += c.hits
		total.disguised += c.disguised
		total.generated += c.generated
		total.real += c.real
		total.inserts += c.inserts
		total.evictions += c.evictions
		return nil
	}
	for _, row := range fig.Rows {
		cellSeed := sweep.DeriveSeed(cfg.Seed, "fig=5a", "algo="+row.Algorithm, fmt.Sprintf("size=%d", row.CacheSize))
		mgr, err := fig5Manager(cfg, row.Algorithm, cellSeed)
		if err != nil {
			return total, err
		}
		genCfg := trace.DefaultGeneratorConfig(cfg.Seed, cfg.Requests)
		genCfg.PrivateFraction = cfg.PrivateFraction
		if err := cell(fmt.Sprintf("5a %s@%d", row.Algorithm, row.CacheSize), genCfg, row.CacheSize, "lru", mgr, row.HitRate); err != nil {
			return total, err
		}
	}
	for _, row := range abl.Rows {
		if err := cell(fmt.Sprintf("ablation %s@%d", row.Policy, row.CacheSize), trace.DefaultGeneratorConfig(seed, fig5Requests),
			row.CacheSize, row.Policy, core.NewNoPrivacy(), row.HitRate); err != nil {
			return total, err
		}
	}
	return total, nil
}

// tracedFig5 is fig5-replay's traced run: one untraced pass for the
// end-to-end reference, then the ledger replay of every cell with each
// layer call timed.
func tracedFig5(cfg config, rep *report) error {
	wall, err := timePass(cfg, fig5Pass)
	if err != nil {
		return err
	}
	fig, abl, err := fig5Rows(cfg.seed)
	if err != nil {
		return err
	}
	t := newLayerTimer()
	var tally replayCounts
	start := time.Now()
	allocBytes, gcFrac, err := memDelta(func() error {
		var err error
		tally, err = fig5Ledger(cfg.seed, fig, abl, rep, t)
		return err
	})
	if err != nil {
		return err
	}
	traced := time.Since(start)
	rep.timerLayers(t, opTraceNext, opCacheLookup, opCacheTouch, opCacheInsert, opCoreOnHit, opCoreOnCached)
	rep.layer("cache.evictions_per_insert", float64(tally.evictions)/float64(tally.inserts), fmt.Sprintf("%d inserts", tally.inserts))
	found := tally.hits + tally.disguised + tally.generated
	rep.layer("cache.hit_ratio", float64(found)/float64(tally.requests), fmt.Sprintf("found / %d lookups", tally.requests))
	rep.layer("core.generated_miss_ratio", float64(tally.generated)/float64(found), fmt.Sprintf("generated misses / %d found", found))
	rep.layer("runtime.alloc_bytes_per_op", float64(allocBytes)/float64(tally.requests), "per replayed request, traced replay")
	rep.layer("runtime.gc_cpu_fraction", gcFrac, "GC share of process CPU during the traced replay")
	rep.layer("bench.tracing_overhead", traced.Seconds()/wall.Seconds()-1, fmt.Sprintf("traced replay %.3fs vs untraced wall_s %.3fs", traced.Seconds(), wall.Seconds()))
	rep.layer("bench.unexplained_share", 1-t.covered().Seconds()/traced.Seconds(),
		fmt.Sprintf("of the traced replay; sampled request spans leave %.1f%% as self time", 100*t.rootSelf.Seconds()/t.rootAll.Seconds()))
	writeSpans(cfg.workload, t.spans)
	rep.finishLayers()
	return nil
}

// timePass runs one untraced pass and returns its wall time.
func timePass(cfg config, pass func(int64) (string, int64, error)) (time.Duration, error) {
	start := time.Now()
	_, _, err := pass(cfg.seed)
	return time.Since(start), err
}

// tracedSimAttack is sim-attack's traced run: the attack scenarios the
// drivers make, called directly and timed, the threshold classifiers on
// their samples, the simulator's event dispatch, and the forwarder.
func tracedSimAttack(cfg config, rep *report) error {
	wall, err := timePass(cfg, simPass)
	if err != nil {
		return err
	}
	sc := attack.ScenarioConfig{Seed: cfg.seed, Objects: simObjects, Runs: simRuns, Parallel: 1}
	var scenarioTime, statsTime time.Duration
	var calls, statCalls, samples, probes int
	var steps uint64
	exp := map[string]float64{}
	for _, f := range figure3 {
		r, err := f.run(simConfig(cfg.seed))
		if err != nil {
			return err
		}
		exp[f.name] = r.Result.Accuracy
	}
	var allocBytes uint64
	var gcFrac float64
	start := time.Now()
	allocBytes, gcFrac, err = memDelta(func() error {
		for i, run := range []func(attack.ScenarioConfig) (*attack.Result, error){attack.RunLAN, attack.RunWAN, attack.RunProducerPrivacy, attack.RunLocalHost} {
			t := time.Now()
			r, err := run(sc)
			scenarioTime += time.Since(t)
			calls++
			if err != nil {
				return err
			}
			steps += r.Steps
			probes += len(r.Hit) + len(r.Miss)
			rep.ops(1, 0)
			rep.check(r.Accuracy == exp[figure3[i].name], "attack %s accuracy %.6f, driver %.6f", figure3[i].name, r.Accuracy, exp[figure3[i].name])
			hit, err1 := stats.NewEmpirical(r.Hit)
			miss, err2 := stats.NewEmpirical(r.Miss)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("samples: %v %v", err1, err2)
			}
			t = time.Now()
			acc, _ := stats.ThresholdAccuracy(hit, miss)
			statsTime += time.Since(t)
			statCalls++
			samples += len(r.Hit) + len(r.Miss)
			rep.check(acc == r.Accuracy, "threshold accuracy %.6f, scenario %.6f", acc, r.Accuracy)
		}
		for _, m := range tieredManagers() {
			tc := attack.TieredScenarioConfig{ScenarioConfig: sc}
			if m != nil {
				tc.Manager, tc.MarkPrivate = m, true
			}
			t := time.Now()
			r, err := attack.RunTiered(tc)
			scenarioTime += time.Since(t)
			calls++
			if err != nil {
				return err
			}
			steps += r.Steps
			probes += len(r.RAMHit) + len(r.DiskHit) + len(r.Miss)
			ram, err1 := stats.NewEmpirical(r.RAMHit)
			disk, err2 := stats.NewEmpirical(r.DiskHit)
			miss, err3 := stats.NewEmpirical(r.Miss)
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("tiered samples: %v %v %v", err1, err2, err3)
			}
			t = time.Now()
			acc, _, _ := stats.ThreeWayThresholdAccuracy(ram, disk, miss)
			statsTime += time.Since(t)
			statCalls++
			samples += len(r.RAMHit) + len(r.DiskHit) + len(r.Miss)
			rep.ops(1, 0)
			rep.check(acc == r.Accuracy, "three-way accuracy %.6f, scenario %.6f", acc, r.Accuracy)
		}
		return nil
	})
	if err != nil {
		return err
	}
	traced := time.Since(start)
	rep.layer("attack.scenario.s", scenarioTime.Seconds()/float64(calls), fmt.Sprintf("mean of %d scenario calls (4 of Figure 3, 4 tiered)", calls))
	rep.layer("stats.threshold.ns", float64(statsTime.Nanoseconds())/float64(statCalls), fmt.Sprintf("mean of %d classifier calls", statCalls))
	rep.layer("stats.threshold.samples", float64(samples)/float64(statCalls), "samples per classifier call")
	rep.layer("netsim.events_per_probe", float64(steps)/float64(probes), fmt.Sprintf("%d events / %d probes", steps, probes))
	dispatch, err := netsimDispatch(cfg.seed)
	if err != nil {
		return err
	}
	rep.layer("netsim.dispatch.ns", dispatch, fmt.Sprintf("Schedule+RunSteps of a no-op event at queue depth %d", dispatchDepth))
	rep.layer("runtime.alloc_bytes_per_op", float64(allocBytes)/float64(probes), "per probe, traced scenario calls")
	rep.layer("runtime.gc_cpu_fraction", gcFrac, "GC share of process CPU during the traced scenario calls")
	// The classifier re-runs are extra work the pass does not do.
	replica := traced - statsTime
	rep.layer("bench.tracing_overhead", replica.Seconds()/wall.Seconds()-1, fmt.Sprintf("traced scenario calls %.3fs vs untraced pass %.3fs", replica.Seconds(), wall.Seconds()))
	rep.layer("bench.unexplained_share", 1-scenarioTime.Seconds()/replica.Seconds(), "of the traced scenario calls, outside the timed attack.Run* calls")
	if err := fwdLedger(cfg.seed, rep, 4096, "hit"); err != nil {
		return err
	}
	rep.finishLayers()
	return nil
}

// tieredManagers lists the tiered attack's cases as RunTieredTiming runs
// them: undefended (nil) and the three countermeasures.
func tieredManagers() []func(*netsim.Simulator) core.CacheManager {
	must := func(m core.CacheManager, err error) core.CacheManager {
		if err != nil {
			panic(err) // constant, valid parameters
		}
		return m
	}
	return []func(*netsim.Simulator) core.CacheManager{
		nil,
		func(*netsim.Simulator) core.CacheManager {
			return must(core.NewDelayManager(core.NewContentSpecificDelay()))
		},
		func(*netsim.Simulator) core.CacheManager {
			s, err := core.NewConstantDelay(12 * time.Millisecond)
			if err != nil {
				panic(err)
			}
			return must(core.NewDelayManager(s))
		},
		func(sim *netsim.Simulator) core.CacheManager {
			dist, err := core.NewUniformForPrivacy(1, 0.05)
			if err != nil {
				panic(err)
			}
			return must(core.NewRandomCache(dist, sim.Rand()))
		},
	}
}

// dispatchDepth is the event-queue depth the dispatch cost is taken at.
const dispatchDepth = 64

// netsimDispatch returns the mean cost of scheduling one no-op event and
// running one, with dispatchDepth events pending.
func netsimDispatch(seed int64) (float64, error) {
	sim := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}
	for i := 0; i < dispatchDepth; i++ {
		sim.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, noop)
	}
	const n = 500000
	start := time.Now()
	for i := 0; i < n; i++ {
		sim.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, noop)
		if sim.RunSteps(1) != 1 {
			return 0, fmt.Errorf("netsim ran no event with %d pending", sim.Pending())
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n, nil
}
