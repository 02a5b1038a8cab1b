package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"parcolor"
	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/params"
)

// solverSpec sizes one solver workload. Sizes and shares come from
// cmd/d1lc -trace -cpuprofile on a 2-vCPU host; README.md explains the
// choice of each.
type solverSpec struct {
	generator string
	n         int
	smokeN    int
	// perSolve is the nominal wall time of one solve on that host. It fixes
	// how many instances a run of a given length solves, so the instance
	// list (and every work counter) depends only on the seed and the length.
	perSolve time.Duration
	// layers runs the standalone params/ACD/HKNT calls on the instances.
	// It is off where the solver never calls those layers on the whole
	// graph (partition: sparsify splits the graph first), because a
	// standalone call would then time work the solve does not do.
	layers bool
}

var solverSpecs = map[string]solverSpec{
	"dense":     {generator: "mixed", n: 800, smokeN: 120, perSolve: 1900 * time.Millisecond, layers: true},
	"sparse":    {generator: "gnp-sparse", n: 100_000, smokeN: 3_000, perSolve: 260 * time.Millisecond, layers: true},
	"partition": {generator: "gnp-dense", n: 2_200, smokeN: 300, perSolve: 950 * time.Millisecond, layers: false},
}

const (
	setupReps    = 3 // set-ups per untraced run; setup_s is their median
	minInstances = 3
	subsetSolves = 2 // instances re-solved at workers=1 and untraced in the traced run
	layerReps    = 3 // repetitions of each standalone layer call
)

// instanceSet is a workload's generated inputs. It keeps the measured
// instances as bare graphs: trivial palettes take more memory than the CSR
// graph, so they are attached per use, outside every timed region.
type instanceSet struct {
	seeds  []uint64
	graphs []*graph.Graph
	gen    []time.Duration // graph generation time per measured instance
	warm   *parcolor.Instance
}

// instance returns measured instance i with trivial palettes.
func (s *instanceSet) instance(i int) *parcolor.Instance {
	return parcolor.TrivialPalettes(s.graphs[i])
}

func (spec solverSpec) size(cfg config) int {
	if cfg.smoke {
		return spec.smokeN
	}
	return spec.n
}

func (spec solverSpec) count(cfg config) int {
	c := int(math.Round(float64(time.Duration(cfg.seconds)*time.Second) / float64(spec.perSolve)))
	return max(c, minInstances)
}

// makeInstances generates the workload's instances with trivial palettes.
func makeInstances(spec solverSpec, cfg config) (*instanceSet, error) {
	seeds, warmSeed := derivedSeeds(cfg.workload, cfg.seed, spec.count(cfg))
	n := spec.size(cfg)
	set := &instanceSet{seeds: seeds}
	for _, s := range seeds {
		t0 := time.Now()
		g, err := graph.Named(spec.generator, n, s)
		if err != nil {
			return nil, err
		}
		set.gen = append(set.gen, time.Since(t0))
		set.graphs = append(set.graphs, g)
	}
	g, err := graph.Named(spec.generator, n, warmSeed)
	if err != nil {
		return nil, err
	}
	set.warm = parcolor.TrivialPalettes(g)
	return set, nil
}

// setUp generates the inputs, constructs the Solver and runs the warm-up
// solve; its wall time is what setup_s measures.
func setUp(spec solverSpec, cfg config, opts ...parcolor.Option) (*instanceSet, *parcolor.Solver, time.Duration, error) {
	t0 := time.Now()
	set, err := makeInstances(spec, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	sv, err := newWarmSolver(set.warm, opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	return set, sv, time.Since(t0), nil
}

// newWarmSolver constructs a Solver and solves the warm-up instance on it.
func newWarmSolver(warm *parcolor.Instance, opts ...parcolor.Option) (*parcolor.Solver, error) {
	sv, err := parcolor.NewSolver(opts...)
	if err != nil {
		return nil, err
	}
	if _, err := sv.Solve(context.Background(), warm); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return sv, nil
}

// solved is one checked solve.
type solved struct {
	res    *parcolor.Result
	wall   time.Duration
	verify time.Duration
}

// solveChecked solves in and re-verifies the coloring against the original
// instance. A solver error or an invalid coloring counts as a failure.
func solveChecked(t *tally, sv *parcolor.Solver, in *parcolor.Instance, what string) (solved, bool) {
	t0 := time.Now()
	res, err := sv.Solve(context.Background(), in)
	out := solved{res: res, wall: time.Since(t0)}
	if err == nil {
		t1 := time.Now()
		err = d1lc.Verify(in, res.Coloring)
		out.verify = time.Since(t1)
	}
	return out, t.check(err, what)
}

// runSolverWorkload runs one of the solver workloads (dense, sparse,
// partition).
func runSolverWorkload(cfg config) (map[string]float64, tally, error) {
	spec := solverSpecs[cfg.workload]
	if cfg.trace {
		return traceSolver(spec, cfg)
	}
	var (
		set    *instanceSet
		sv     *parcolor.Solver
		setups []float64
	)
	for range setupReps {
		set, sv = nil, nil
		runtime.GC() // start each phase from the same heap state
		s, v, d, err := setUp(spec, cfg)
		if err != nil {
			return nil, tally{}, err
		}
		set, sv = s, v
		setups = append(setups, d.Seconds())
	}

	var t tally
	var walls []time.Duration
	var colors, rounds, peaks []float64
	runtime.GC() // start each phase from the same heap state
	for i := range set.graphs {
		in := set.instance(i)
		heap := startHeapSampler()
		s, ok := solveChecked(&t, sv, in, fmt.Sprintf("instance %d", i))
		peaks = append(peaks, heap.peakMB())
		if !ok {
			continue
		}
		walls = append(walls, s.wall)
		colors = append(colors, float64(s.res.DistinctColors))
		rounds = append(rounds, float64(s.res.Rounds))
	}
	total := time.Duration(0)
	for _, w := range walls {
		total += w
	}
	ms := millis(walls)
	return map[string]float64{
		"setup_s":        median(setups),
		"solve_s":        median(seconds(walls)),
		"colors":         mean(colors),
		"rounds":         mean(rounds),
		"peak_heap_mb":   median(peaks),
		"ok_frac":        ratio(float64(t.attempted-t.failed), float64(t.attempted)),
		"latency_p50_ms": quantile(ms, 0.5),
		"latency_p90_ms": quantile(ms, 0.9),
		"served_per_s":   ratio(float64(len(walls)), total.Seconds()),
	}, t, nil
}

// counters are the deterministic work counters of one solve: they depend
// only on the instance, never on timing or the worker count.
type counters struct {
	colors, rounds                       int
	deframeSeedEvals, deframeDeferred    int64
	sparsifySeedEvals, copiedArcs, bases int64
}

func countersOf(res *parcolor.Result, events []span) counters {
	steps := named(events, isStep)
	parts := named(events, is("sparsify/partition"))
	c := counters{
		colors:            res.DistinctColors,
		rounds:            res.Rounds,
		deframeSeedEvals:  sumAttr(steps, "seed_evals"),
		deframeDeferred:   sumAttr(steps, "deferred"),
		sparsifySeedEvals: sumAttr(parts, "seed_evals"),
	}
	if res.Sparsify != nil {
		c.copiedArcs = res.Sparsify.CopiedArcs
		c.bases = int64(res.Sparsify.BaseInstances)
	}
	return c
}

// isStep matches the derandomized-step events (every deframe phase but the
// greedy residue).
func isStep(name string) bool {
	return strings.HasPrefix(name, "deframe/") && name != "deframe/greedy-residue"
}

func is(name string) func(string) bool { return func(s string) bool { return s == name } }

func isEngine(name string) bool {
	return strings.HasPrefix(name, "deframe/") || strings.HasPrefix(name, "sparsify/")
}

// traceSolver is the traced run of a solver workload: every solve records
// its engine events as spans, the layers are timed standalone, a subset of
// instances is re-solved at workers=1 and without tracing, and the
// classical baselines solve every instance.
func traceSolver(spec solverSpec, cfg config) (map[string]float64, tally, error) {
	rec := newRecorder()
	runSpan := rec.open(0, "run")
	wlSpan := rec.open(runSpan, "workload/"+cfg.workload)
	set, sv, _, err := setUp(spec, cfg, parcolor.WithTrace(rec))
	if err != nil {
		return nil, tally{}, err
	}
	nproc := runtime.GOMAXPROCS(0)
	var t tally
	vals := map[string]float64{}

	arcs := 0.0
	for _, g := range set.graphs {
		arcs += float64(2 * g.M())
	}
	vals["graph.gen_s"] = mean(seconds(set.gen))
	vals["graph.arcs"] = arcs / float64(len(set.graphs))

	// Traced solves of every instance.
	runs := make([]*tracedSolve, len(set.graphs))
	cpu0, wall0 := cpuTime(), time.Now()
	for i := range set.graphs {
		runs[i] = solveTraced(&t, rec, wlSpan, sv, set, i, "traced")
	}
	vals["par.cpu_util"] = ratio(cpuTime().Seconds()-cpu0.Seconds(), time.Since(wall0).Seconds()*float64(nproc))

	var (
		steps, residue, parts []span
		uncovered, wall       time.Duration
		verify                []float64
		ok                    []*tracedSolve
		stepWork              float64
	)
	perInstance := map[string]float64{}
	for _, r := range runs {
		if r == nil {
			continue
		}
		ok = append(ok, r)
		inst := rec.get(r.span)
		ev := rec.children(r.span)
		st := named(ev, isStep)
		res := named(ev, is("deframe/greedy-residue"))
		pt := named(ev, is("sparsify/partition"))
		steps, residue, parts = append(steps, st...), append(residue, res...), append(parts, pt...)
		for _, s := range st {
			stepWork += float64(s.Attrs["seed_evals"]) * float64(s.Attrs["participants"])
		}
		cover := func(s []span) float64 { return covered(s, inst.Start, inst.End).Seconds() }
		perInstance["deframe.step_s"] += cover(st)
		perInstance["deframe.synch_s"] += cover(named(st, is("deframe/dense/synch")))
		perInstance["deframe.residue_s"] += cover(res)
		perInstance["sparsify.partition_s"] += cover(pt)
		perInstance["sparsify.bin_s"] += cover(named(ev, is("sparsify/bin")))
		d := inst.End - inst.Start
		wall += d
		uncovered += d - covered(named(ev, isEngine), inst.Start, inst.End)
		verify = append(verify, r.verify.Seconds())
		if sp := r.res.Sparsify; sp != nil {
			perInstance["sparsify.base_instances"] += float64(sp.BaseInstances)
			perInstance["sparsify.copied_arcs"] += float64(sp.CopiedArcs)
			perInstance["sparsify.moved_to_mid"] += float64(sp.MovedToMid)
			vals["sparsify.lemma23_ratio"] = max(vals["sparsify.lemma23_ratio"], sp.MaxDegreeRatio)
		}
	}
	if len(ok) == 0 {
		return nil, t, fmt.Errorf("every traced solve failed")
	}
	k := float64(len(ok))
	for name, v := range perInstance {
		vals[name] = v / k
	}
	stepParticipants := float64(sumAttr(steps, "participants"))
	stepElapsed := 0.0
	for _, s := range steps {
		stepElapsed += (s.End - s.Start).Seconds()
	}
	vals["deframe.steps"] = float64(len(steps)) / k
	vals["deframe.seed_evals"] = float64(sumAttr(steps, "seed_evals")) / k
	vals["deframe.participants"] = stepParticipants / k
	vals["deframe.ns_per_seed_participant"] = ratio(stepElapsed*1e9, stepWork)
	vals["deframe.deferred"] = float64(sumAttr(steps, "deferred")) / k
	vals["deframe.deferral_frac"] = ratio(float64(sumAttr(steps, "deferred")), stepParticipants)
	vals["deframe.residue_nodes"] = float64(sumAttr(residue, "participants")) / k
	vals["sparsify.partitions"] = float64(len(parts)) / k
	vals["sparsify.seed_evals"] = float64(sumAttr(parts, "seed_evals")) / k
	vals["solve.unattributed_frac"] = ratio(uncovered.Seconds(), wall.Seconds())
	vals["d1lc.verify_s"] = mean(verify)

	// Standalone layer calls, timed from outside on the first instance.
	// Each call repeats layerReps times and reports its median, because on
	// small instances one call takes about a millisecond.
	if spec.layers {
		in := set.instance(0)
		tun := hknt.Tunables{}.WithDefaults(in.G.N(), in.G.MaxDegree())
		p := layerCall(rec, wlSpan, "layer/params.ComputePar", func() func() {
			return func() { params.ComputePar(nil, in) }
		})
		a := layerCall(rec, wlSpan, "layer/acd.ComputePar", func() func() {
			return func() { acd.ComputePar(nil, in, tun.ACD) }
		})
		b := layerCall(rec, wlSpan, "layer/hknt.BuildColorMiddle", func() func() {
			st := hknt.NewState(in) // outside the timed call
			return func() { hknt.BuildColorMiddle(st, hknt.Tunables{}) }
		})
		vals["params.compute_s"] = p.Seconds()
		vals["params.ns_per_arc"] = float64(p.Nanoseconds()) / float64(2*in.G.M())
		vals["acd.self_s"] = (a - p).Seconds()
		vals["hknt.build_self_s"] = (b - a).Seconds()
	}

	// Worker scaling, tracing overhead and the determinism check on a
	// subset. Each side runs on its own fresh, warmed solver, so no chunk
	// memo from the solves above is reused and both sides of each ratio
	// start alike; the solves of one instance run back to back.
	subRec := newRecorder()
	wN, err := newWarmSolver(set.warm, parcolor.WithTrace(subRec))
	if err != nil {
		return nil, t, err
	}
	w1, err := newWarmSolver(set.warm, parcolor.WithWorkers(1), parcolor.WithTrace(subRec))
	if err != nil {
		return nil, t, err
	}
	plain, err := newWarmSolver(set.warm)
	if err != nil {
		return nil, t, err
	}
	var wNWall, w1Wall, plainWall []float64
	for _, r := range ok[:min(subsetSolves, len(ok))] {
		p, okp := solveChecked(&t, plain, set.instance(r.index), fmt.Sprintf("untraced instance %d", r.index))
		n := solveTraced(&t, subRec, 0, wN, set, r.index, fmt.Sprintf("workers=%d", nproc))
		one := solveTraced(&t, subRec, 0, w1, set, r.index, "workers=1")
		if !okp || n == nil || one == nil {
			continue
		}
		plainWall = append(plainWall, p.wall.Seconds())
		wNWall = append(wNWall, n.wall.Seconds())
		w1Wall = append(w1Wall, one.wall.Seconds())
		var err error
		if n.ctr != r.ctr || one.ctr != r.ctr {
			err = fmt.Errorf("work counters differ: %+v, workers=%d %+v, workers=1 %+v", r.ctr, nproc, n.ctr, one.ctr)
		} else if !slices.Equal(one.res.Coloring.Colors, r.res.Coloring.Colors) {
			err = fmt.Errorf("coloring differs between workers=%d and workers=1", nproc)
		}
		t.check(err, fmt.Sprintf("determinism of instance %d", r.index))
	}
	vals["par.speedup"] = ratio(median(w1Wall), median(wNWall))
	vals["trace.overhead_frac"] = ratio(median(wNWall), median(plainWall)) - 1

	// Classical baselines on every instance (context rows, not gated).
	for _, b := range []struct {
		name string
		alg  parcolor.Algorithm
	}{{"jp", parcolor.JonesPlassmann}, {"luby", parcolor.LubyColoring}} {
		bs, err := newWarmSolver(set.warm, parcolor.WithAlgorithm(b.alg))
		if err != nil {
			return nil, t, err
		}
		var walls, colors, rounds []float64
		for i := range set.graphs {
			in := set.instance(i)
			id := rec.open(wlSpan, fmt.Sprintf("baseline/%s/%d", b.name, i))
			s, ok := solveChecked(&t, bs, in, fmt.Sprintf("%s instance %d", b.name, i))
			rec.close(id, nil)
			if ok {
				walls = append(walls, s.wall.Seconds())
				colors = append(colors, float64(s.res.DistinctColors))
				rounds = append(rounds, float64(s.res.Rounds))
			}
		}
		vals["baseline."+b.name+".colors"] = mean(colors)
		vals["baseline."+b.name+".rounds"] = mean(rounds)
		vals["baseline."+b.name+".solve_s"] = median(walls)
	}

	rec.close(wlSpan, nil)
	rec.close(runSpan, nil)
	if err := rec.write(cfg.traceDir, cfg.workload, cfg.seed); err != nil {
		return nil, t, err
	}
	return vals, t, nil
}

// tracedSolve is one checked solve whose engine events were recorded.
type tracedSolve struct {
	solved
	index int // instance index
	span  int // instance span id
	ctr   counters
}

// solveTraced solves instance i on sv, a solver traced into rec, with the
// solve's engine events collected under a new instance span. It returns
// nil if the solve failed.
func solveTraced(t *tally, rec *recorder, parent int, sv *parcolor.Solver, set *instanceSet, i int, label string) *tracedSolve {
	in := set.instance(i)
	id := rec.open(parent, fmt.Sprintf("instance/%d", i))
	stop := rec.collect(id)
	s, ok := solveChecked(t, sv, in, fmt.Sprintf("%s instance %d", label, i))
	stop()
	rec.close(id, map[string]int64{"seed": int64(set.seeds[i]), "n": int64(in.G.N()), "arcs": int64(2 * in.G.M())})
	if !ok {
		return nil
	}
	return &tracedSolve{solved: s, index: i, span: id, ctr: countersOf(s.res, rec.children(id))}
}

// layerCall times layerReps standalone calls of one layer, each recorded as
// a span, and returns their median. prepare builds each call's untimed
// inputs and returns the call.
func layerCall(rec *recorder, parent int, name string, prepare func() func()) time.Duration {
	var ds []float64
	for range layerReps {
		call := prepare()
		id := rec.open(parent, name)
		t0 := time.Now()
		call()
		ds = append(ds, float64(time.Since(t0)))
		rec.close(id, nil)
	}
	return time.Duration(median(ds))
}
