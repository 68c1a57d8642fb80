// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks the program's outputs, prints a
// human-readable report and, as its last line, one JSON result:
//
//	perfbench --workload fig5-replay --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is a separate run that times each layer from outside, around
// calls into its public functions, and prints the per-layer metrics.
// run.sh builds ndnd and this harness and then runs it from the checkout
// root, which is where ndnd is looked for (.bench_build/ndnd).
//
//	perfbench agree BENCHMARK.json runs-a.jsonl runs-b.jsonl
//
// compares two sets of result lines (one JSON result per line) by the
// spread and median rules BENCHMARK.json's bounds define.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's result and prints its human-readable lines.
type report struct {
	res result
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a metric for the JSON result and prints it with its note
// (sample counts, definitions).
func (r *report) set(name string, value float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("%-34s %14.6g %-9s %s\n", name, value, unit, note)
}

// show prints a metric that is part of the report but not of the result.
func (r *report) show(name string, value float64, unit, note string) {
	fmt.Printf("%-34s %14.6g %-9s %s (not in the result)\n", name, value, unit, note)
}

// reference prints the reference kernel's timings the ru metrics divide by.
func (r *report) reference(refs []refTime) {
	walls, cpus := make([]float64, len(refs)), make([]float64, len(refs))
	for i, t := range refs {
		walls[i], cpus[i] = t.wall, t.cpu
	}
	r.note("reference unit (ru): median %.3f ms wall, %.3f ms CPU over %d timings (wall min %.3f, max %.3f)",
		1e3*median(walls), 1e3*median(cpus), len(refs), 1e3*sortedCopy(walls)[0], 1e3*sortedCopy(walls)[len(walls)-1])
}

// note prints a line that is part of the report but not of the result.
func (r *report) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// check fails the run (and counts one failed operation) when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Correct = false
		r.res.Failed++
		fmt.Printf("# CHECK FAILED: "+format+"\n", args...)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

type workload struct {
	name   string
	run    func(config, *report) error
	traced func(config, *report) error
}

var workloads = []workload{
	{name: "fig5-replay", run: runFig5, traced: tracedFig5},
	{name: "sim-attack", run: runSimAttack, traced: tracedSimAttack},
	{name: "loopback-hit", run: func(c config, r *report) error { return runLoopback(c, r, hitLoad) },
		traced: func(c config, r *report) error { return tracedLoopback(c, r, hitLoad) }},
	{name: "loopback-miss", run: func(c config, r *report) error { return runLoopback(c, r, missLoad) },
		traced: func(c config, r *report) error { return tracedLoopback(c, r, missLoad) }},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	probe := flag.String("probe-setup", "", "internal: run a batch workload's set-up, report readiness, exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	flag.Parse()
	cfg.trace = trace == 1
	if *probe != "" {
		return probeSetup(*probe, cfg.seed)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if _, err := os.Stat(ndndPath); err != nil {
		return fmt.Errorf("ndnd binary missing (run via perfbench/run.sh): %w", err)
	}
	// One P for the harness: the batch drivers are serial, and the
	// loopback load generator should leave ndnd's cores alone. On a
	// shared 2-vCPU machine this also keeps the batch figures from
	// depending on whether a second core happens to be free for the GC.
	runtime.GOMAXPROCS(1)
	printEnv(cfg)
	rep := newReport()
	var err error
	if cfg.trace {
		err = w.traced(cfg, rep)
	} else {
		err = w.run(cfg, rep)
	}
	if err != nil {
		return err
	}
	if rep.res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Printf("%-34s %14.6g %-9s failed %d of %d attempted operations\n", "error_ratio",
		float64(rep.res.Failed)/float64(rep.res.Attempted), "ratio", rep.res.Failed, rep.res.Attempted)
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.res.Correct {
		os.Exit(2)
	}
	return nil
}

// printEnv writes the environment header every result carries.
func printEnv(cfg config) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("# env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# run workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if strings.HasPrefix(cfg.workload, "loopback") {
		fmt.Println("# network: traffic crossed the host loopback interface, not a link")
		fmt.Printf("# ndnd runs with its default GOMAXPROCS (%d)\n", runtime.NumCPU())
	}
}

// agreeMain implements the agree subcommand.
func agreeMain(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench agree BENCHMARK.json runs-a.jsonl runs-b.jsonl")
		return 2
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	b, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	sets := make([]map[string][]float64, 2)
	for i, path := range args[1:] {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	for _, m := range bench.EndToEnd {
		for i, set := range sets {
			xs := set[m.Name]
			q1, q3 := quartiles(xs)
			fmt.Printf("%-24s set %d: n=%d median %.6g q1 %.6g q3 %.6g spread %.4f (bound %.2f)\n",
				m.Name, i+1, len(xs), median(xs), q1, q3, relSpread(xs), m.Bound)
		}
	}
	// A third of the bound is the steadiness target; the acceptance
	// rule itself is the full bound.
	bad := agree(bench.EndToEnd, sets[0], sets[1], 1.0/3)
	for _, line := range bad {
		fmt.Println("DISAGREE", line)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("agree: every spread is under a third of its bound and the medians agree")
	return 0
}

// readRuns reads result lines and groups metric values by name. Lines
// that are not results are skipped, so whole run logs can be passed.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}
