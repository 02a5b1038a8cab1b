package parcolor

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// mustSolver builds a Solver or fails the test.
func mustSolver(t *testing.T, opts ...Option) *Solver {
	t.Helper()
	s, err := NewSolver(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameColoring(t *testing.T, a, b *Coloring, label string) {
	t.Helper()
	if len(a.Colors) != len(b.Colors) {
		t.Fatalf("%s: coloring sizes differ", label)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("%s: colorings diverge at node %d: %d vs %d", label, v, a.Colors[v], b.Colors[v])
		}
	}
}

func TestNewSolverValidatesOnce(t *testing.T) {
	bad := []struct {
		name string
		opts []Option
	}{
		{"seedbits too big", []Option{WithSeedBits(30)}},
		{"negative seedbits", []Option{WithSeedBits(-1)}},
		{"one bin", []Option{WithBins(1)}},
		{"bad algorithm", []Option{WithAlgorithm(Algorithm(99))}},
		{"negative batch", []Option{WithBatchConcurrency(-2)}},
		{"bad imported options", []Option{WithOptions(Options{SeedBits: 30})}},
	}
	for _, tc := range bad {
		if _, err := NewSolver(tc.opts...); err == nil {
			t.Errorf("%s: NewSolver accepted invalid configuration", tc.name)
		}
	}
	s := mustSolver(t, WithWorkers(3), WithSeedBits(6), WithBitwise(true))
	o := s.Options()
	if o.Workers != 3 || o.SeedBits != 6 || !o.Bitwise {
		t.Fatalf("options not captured: %+v", o)
	}
	// Legacy compatibility: non-positive worker bounds normalize to the
	// process default instead of erroring, as the old Solve behaved.
	s = mustSolver(t, WithWorkers(-1))
	if s.Options().Workers != 0 {
		t.Fatalf("negative workers not normalized: %d", s.Options().Workers)
	}
}

// TestConcurrentSolversHonorOwnWorkerBounds is the regression test for the
// par.SetMaxWorkers global-mutation race: two Solves running concurrently
// with different Workers values must each honor their own bound — nothing
// global is mutated — and produce exactly the sequential results. Run
// under -race this also proves the harnesses share no unsynchronized
// state.
func TestConcurrentSolversHonorOwnWorkerBounds(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 220, 3))
	ref, err := Solve(in, Options{SeedBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	var wg sync.WaitGroup
	for _, workers := range []int{1, 4} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewSolver(WithWorkers(w), WithSeedBits(6))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				res, err := s.Solve(context.Background(), in)
				if err != nil {
					t.Errorf("workers=%d: %v", w, err)
					return
				}
				for v := range res.Coloring.Colors {
					if res.Coloring.Colors[v] != ref.Coloring.Colors[v] {
						t.Errorf("workers=%d: coloring diverged at node %d", w, v)
						return
					}
				}
			}
		}(workers)
	}
	wg.Wait()
}

// waitGoroutinesBack polls until the goroutine count returns near the
// baseline, proving cancelled solves leave no workers behind.
func waitGoroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationAllAlgorithms checks that a context cancelled before the
// solve starts returns ctx.Err() from every algorithm — deterministic,
// lowdeg, MIS and MPC — without panics or goroutine leaks.
func TestCancellationAllAlgorithms(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 300, 2))
	g := GenerateGraph("gnp-sparse", 300, 2)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, alg := range []Algorithm{Deterministic, LowDegreeDeterministic, Randomized} {
		s := mustSolver(t, WithAlgorithm(alg), WithSeedBits(6))
		if _, err := s.Solve(ctx, in); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", alg, err)
		}
	}
	{
		s := mustSolver(t, WithAlgorithm(Randomized), WithDegreeRanges(true))
		if _, err := s.Solve(ctx, in); !errors.Is(err, context.Canceled) {
			t.Errorf("randomized degree-ranges: err = %v, want context.Canceled", err)
		}
	}
	s := mustSolver(t)
	if _, err := s.MIS(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("MIS: err = %v, want context.Canceled", err)
	}
	if _, err := s.SolveOnMPC(ctx, in, 0, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveOnMPC: err = %v, want context.Canceled", err)
	}
	waitGoroutinesBack(t, baseline)
}

// TestCancellationMidSolve cancels mid-derandomization and checks both the
// returned error and that no goroutines linger.
func TestCancellationMidSolve(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("gnp-dense", 800, 2))
	baseline := runtime.NumGoroutine()
	for _, alg := range []Algorithm{Deterministic, LowDegreeDeterministic} {
		s := mustSolver(t, WithAlgorithm(alg))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, err := s.Solve(ctx, in)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", alg, err)
		}
	}
	waitGoroutinesBack(t, baseline)
}

// TestCancellationAbortsDeterministicN3000 is the acceptance criterion:
// cancelling a deterministic n=3000 solve must abort well under the
// uncancelled runtime. The margin (uncancelled/2 with a 50ms deadline,
// where uncancelled is hundreds of ms to seconds) is wide enough not to
// flake on slow CI hosts.
func TestCancellationAbortsDeterministicN3000(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3000 solve in -short mode")
	}
	in := TrivialPalettes(GenerateGraph("gnp-dense", 3000, 1))
	s := mustSolver(t)

	start := time.Now()
	if _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := s.Solve(ctx, in)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if aborted >= uncancelled/2 {
		t.Fatalf("cancellation not prompt: aborted in %v, uncancelled %v", aborted, uncancelled)
	}
	t.Logf("uncancelled %v, aborted in %v", uncancelled, aborted)
}

// TestSolverReuseFewerAllocsAndBitIdentical is the warm-pool acceptance
// criterion: repeated Solver.Solve calls on the same instance must
// allocate measurably less than the one-shot path after warm-up, and stay
// bit-identical to a fresh one-shot Solve.
func TestSolverReuseFewerAllocsAndBitIdentical(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 260, 5))
	o := Options{SeedBits: 6}

	oneShot, err := Solve(in, o)
	if err != nil {
		t.Fatal(err)
	}

	s := mustSolver(t, WithOptions(o))
	ctx := context.Background()
	// Warm the pools.
	for i := 0; i < 2; i++ {
		warm, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		sameColoring(t, warm.Coloring, oneShot.Coloring, "warm vs one-shot")
	}

	bytesWarm := allocBytesPerRun(3, func() {
		if _, err := s.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	bytesOneShot := allocBytesPerRun(3, func() {
		if _, err := Solve(in, o); err != nil {
			t.Fatal(err)
		}
	})
	// "Measurably less": the warm path skips the power-graph chunk
	// assignment, state backing, table and scratch allocations — the big
	// buffers of a solve. The gate is on bytes, not allocation counts:
	// since the unit-stride sorts and map-free palette subtraction
	// removed the reflection and per-node map churn that used to dominate
	// the one-shot count, both paths make a similar *number* of small
	// allocations, but the cold path still pays for every pooled buffer.
	// Gate at 90% to stay far from both the real ratio and noise.
	if bytesWarm >= uint64(0.9*float64(bytesOneShot)) {
		t.Fatalf("warm solver does not allocate measurably less: warm %d bytes vs one-shot %d bytes", bytesWarm, bytesOneShot)
	}
	t.Logf("alloc bytes/solve: warm %d vs one-shot %d", bytesWarm, bytesOneShot)
}

// allocBytesPerRun is testing.AllocsPerRun's byte-counting sibling:
// average heap bytes allocated per invocation of fn, measured on a
// single-goroutine run like AllocsPerRun does.
func allocBytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm-up, not counted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSolveBatchMatchesIndividual checks that a mixed-workload batch
// streamed through one Solver returns exactly the per-instance results,
// shares the Tracer across instances, and surfaces per-instance errors
// without killing the rest.
func TestSolveBatchMatchesIndividual(t *testing.T) {
	names := []string{"mixed", "gnp-sparse", "cliques", "powerlaw"}
	ins := make([]*Instance, len(names))
	for i, name := range names {
		ins[i] = TrivialPalettes(GenerateGraph(name, 180+20*i, uint64(i+1)))
	}
	refs := make([]*Result, len(ins))
	for i := range ins {
		r, err := Solve(ins[i], Options{SeedBits: 6})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	collector := NewTraceCollector()
	s := mustSolver(t, WithSeedBits(6), WithTrace(collector), WithBatchConcurrency(2))
	results, err := s.SolveBatch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] == nil {
			t.Fatalf("instance %d: nil result", i)
		}
		sameColoring(t, results[i].Coloring, refs[i].Coloring, names[i])
	}
	if len(collector.Summary()) == 0 {
		t.Fatal("trace collector observed no phases across the batch")
	}

	// A bad instance fails alone; the others still solve.
	bad := NewInstance(GenerateGraph("cycle", 10, 1), make([][]int32, 10))
	mixed := append(append([]*Instance{}, ins[:2]...), bad)
	results, err = s.SolveBatch(context.Background(), mixed)
	if err == nil {
		t.Fatal("batch with invalid instance returned no error")
	}
	if results[0] == nil || results[1] == nil {
		t.Fatal("valid instances did not solve alongside the failing one")
	}
	if results[2] != nil {
		t.Fatal("invalid instance produced a result")
	}
}

// TestTraceObservesDeframePhases pins the Tracer contract: a deterministic
// solve emits deframe step phases with participant and seed-evaluation
// counts.
func TestTraceObservesDeframePhases(t *testing.T) {
	collector := NewTraceCollector()
	s := mustSolver(t, WithSeedBits(6), WithTrace(collector))
	in := TrivialPalettes(GenerateGraph("mixed", 800, 4))
	if _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	sums := collector.Summary()
	var deframePhases, evals int
	for _, ps := range sums {
		if ps.Engine == "deframe" {
			deframePhases++
			evals += ps.SeedEvals
		}
	}
	if deframePhases == 0 {
		t.Fatalf("no deframe phases observed; got %+v", sums)
	}
	if evals == 0 {
		t.Fatal("no seed evaluations recorded in deframe phases")
	}
}

// TestCompatWrappersMatchSolver pins the thin-wrapper contract: the
// package-level Solve equals Solver.Solve with the same options.
func TestCompatWrappersMatchSolver(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 200, 9))
	o := Options{Algorithm: LowDegreeDeterministic, SeedBits: 7, Bitwise: true}
	wrap, err := Solve(in, o)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, WithOptions(o))
	direct, err := s.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	sameColoring(t, wrap.Coloring, direct.Coloring, "wrapper vs solver")
	if wrap.Rounds != direct.Rounds || wrap.DistinctColors != direct.DistinctColors {
		t.Fatalf("accounting differs: %+v vs %+v", wrap, direct)
	}
}
