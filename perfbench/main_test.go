package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// smoke runs one workload at smoke size.
func smoke(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	secs := 1
	if workload == "serve" {
		secs = 2 // long enough for the schedule to contain repeats
	}
	res, err := run(config{workload: workload, seed: seed, seconds: secs, trace: trace, smoke: true, traceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// declared reads the names (and units, for metrics) of one list in
// BENCHMARK.json.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	for name := range declared(t, "workloads") {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the harness does not define", name)
		}
	}
}

func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	for _, tc := range []struct {
		key   string
		trace bool
		defs  []metricDef
	}{{"end_to_end", false, endToEnd}, {"per_layer", true, perLayer}} {
		want := declared(t, tc.key)
		if len(want) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness defines %d", tc.key, len(want), len(tc.defs))
		}
		for w := range workloads {
			res := smoke(t, w, 1, tc.trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, tc.trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, tc.trace, name, m, unit)
				}
			}
			if !tc.trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v", w, res.Metrics["ok_frac"].Value)
			}
			if tc.trace && w == "serve" {
				total, repeats := int(serveRate*2), 0
				for i := range total {
					if isRepeat(i) {
						repeats++
					}
				}
				if got, want := res.Metrics["serve.hit_frac"].Value, float64(repeats)/float64(total); got != want {
					t.Errorf("serve.hit_frac = %v, want the repeat share %v", got, want)
				}
			}
		}
	}
}

// TestWorkCountersRepeat pins the deterministic work counters: two runs
// with the same seed must agree exactly.
func TestWorkCountersRepeat(t *testing.T) {
	counters := []string{"deframe.seed_evals", "deframe.deferred", "sparsify.seed_evals", "sparsify.copied_arcs", "sparsify.base_instances"}
	for _, w := range []string{"dense", "partition"} {
		a, b := smoke(t, w, 3, true), smoke(t, w, 3, true)
		for _, c := range counters {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s differs between runs: %v vs %v", w, c, a.Metrics[c], b.Metrics[c])
			}
		}
		a, b = smoke(t, w, 3, false), smoke(t, w, 3, false)
		for _, c := range []string{"colors", "rounds"} {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s differs between runs: %v vs %v", w, c, a.Metrics[c], b.Metrics[c])
			}
		}
	}
	if v := smoke(t, "partition", 3, true).Metrics["sparsify.partitions"].Value; v == 0 {
		t.Error("partition workload ran no sparsify partition")
	}
}

func TestSeedsChangeInstances(t *testing.T) {
	for w, spec := range solverSpecs {
		cfg := config{workload: w, seconds: 1, smoke: true}
		cfg.seed = 1
		a, err := makeInstances(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.seed = 2
		b, err := makeInstances(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		same := len(a.graphs) == len(b.graphs)
		for i := range a.graphs {
			same = same && slices.Equal(a.graphs[i].Edges(nil), b.graphs[i].Edges(nil))
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generated the same instances", w)
		}
	}
	cfg := config{workload: "serve", seconds: 2, smoke: true}
	cfg.seed = 1
	a, err := makeSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed = 2
	b, err := makeSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.reqs {
		if string(a.reqs[i].body) == string(b.reqs[i].body) {
			t.Errorf("serve: request %d has the same body under seeds 1 and 2", i)
		}
	}
}
