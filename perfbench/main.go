// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every coloring it produces, and prints one JSON object
// as the last line of standard output:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"solve_s": {"value": 1.91, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set (tracing off); with
// -trace 1 they are the per-layer set, measured in a separate traced run
// whose spans are also written to -trace-dir. See README.md for the
// workloads, the metrics and how to read the traced output.
//
// Usage (from the repository root; run.sh builds the harness first):
//
//	bash perfbench/run.sh --workload dense --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the tracing-off metric set; every workload reports all of it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"colors", "count"},
	{"rounds", "count"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"served_per_s", "1/s"},
}

// perLayer is the traced-run metric set. A metric a workload cannot observe
// is reported as 0 (README.md lists where each one applies).
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"graph.arcs", "count"},
	{"params.compute_s", "s"},
	{"params.ns_per_arc", "ns"},
	{"acd.self_s", "s"},
	{"hknt.build_self_s", "s"},
	{"deframe.steps", "count"},
	{"deframe.step_s", "s"},
	{"deframe.synch_s", "s"},
	{"deframe.seed_evals", "count"},
	{"deframe.participants", "count"},
	{"deframe.ns_per_seed_participant", "ns"},
	{"deframe.deferred", "count"},
	{"deframe.deferral_frac", "ratio"},
	{"deframe.residue_s", "s"},
	{"deframe.residue_nodes", "count"},
	{"sparsify.partition_s", "s"},
	{"sparsify.bin_s", "s"},
	{"sparsify.partitions", "count"},
	{"sparsify.seed_evals", "count"},
	{"sparsify.base_instances", "count"},
	{"sparsify.copied_arcs", "count"},
	{"sparsify.moved_to_mid", "count"},
	{"sparsify.lemma23_ratio", "ratio"},
	{"d1lc.verify_s", "s"},
	{"par.speedup", "ratio"},
	{"par.cpu_util", "ratio"},
	{"solve.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"serve.hit_frac", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.slot_util", "ratio"},
	{"serve.refused", "count"},
	{"serve.transport_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"baseline.jp.colors", "count"},
	{"baseline.jp.rounds", "count"},
	{"baseline.jp.solve_s", "s"},
	{"baseline.luby.colors", "count"},
	{"baseline.luby.rounds", "count"},
	{"baseline.luby.solve_s", "s"},
}

// config is one invocation of the harness.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool   // tiny instances for the package test
	traceDir string // where the traced run writes its spans
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// tally counts checked operations; every failure is logged to stderr.
type tally struct{ attempted, failed int }

func (t *tally) check(err error, what string) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (map[string]float64, tally, error){
	"dense":     runSolverWorkload,
	"sparse":    runSolverWorkload,
	"partition": runSolverWorkload,
	"serve":     runServeWorkload,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: dense, sparse, partition or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles the result object.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("seconds must be ≥ 1, got %d", cfg.seconds)
	}
	vals, t, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: %s is %v", cfg.workload, d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted nothing", cfg.workload)
	}
	return out, nil
}

// --- shared measurement helpers -------------------------------------------

// splitmix64 derives well-mixed 64-bit values from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derivedSeeds returns count generator seeds for the workload plus one more
// for the warm-up instance, all distinct and all functions of (name, seed).
func derivedSeeds(name string, seed uint64, count int) (seeds []uint64, warm uint64) {
	h := seed
	for _, c := range []byte(name) {
		h = splitmix64(h ^ uint64(c))
	}
	seeds = make([]uint64, count)
	for i := range seeds {
		seeds[i] = splitmix64(h + uint64(i))
	}
	return seeds, splitmix64(h + uint64(count))
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// heapSampler records the peak heap in use while it runs: live objects plus
// garbage not yet swept, the size the GC let the heap reach. (The live
// heap marked by the last GC depends on when the GC happened to run, and
// on small heaps that timing dominated it.)
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return <-h.done
}

// cpuTime is the process's user+system CPU time so far. Getrusage of the
// calling process does not fail on Linux; 0 keeps par.cpu_util defined on a
// platform where it does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
