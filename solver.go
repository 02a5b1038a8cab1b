package parcolor

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/faultinject"
	"parcolor/internal/graph"
	"parcolor/internal/greedy"
	"parcolor/internal/hknt"
	"parcolor/internal/jp"
	"parcolor/internal/lowdeg"
	"parcolor/internal/mis"
	"parcolor/internal/mpc"
	"parcolor/internal/par"
	"parcolor/internal/sparsify"
	"parcolor/internal/trace"
)

// Tracing re-exports. Engines emit one phase per derandomized step / Luby
// round / trial round / MPC TRC round / sparsify partition; attach a
// Tracer with WithTrace to observe them.
type (
	// Tracer observes phase enter/exit events. Implementations must be
	// safe for concurrent use (SolveBatch shares one Tracer across
	// concurrent solves).
	Tracer = trace.Tracer
	// TraceEvent is one phase observation.
	TraceEvent = trace.Event
	// TraceCollector aggregates exit events into per-phase summaries.
	TraceCollector = trace.Collector
	// TracePhaseSummary is one aggregated (engine, phase) row.
	TracePhaseSummary = trace.PhaseSummary
)

// NewTraceCollector returns an empty aggregating Tracer.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Solver is a reusable, concurrency-safe solving harness: configuration is
// validated once by NewSolver, the worker budget is owned by the Solver
// (two Solvers with different budgets running concurrently never observe
// each other's bound — nothing global is mutated), and the per-worker
// scratch of the derandomization engines (PRG expansion buffers, trial
// arenas, contribution tables, bitset masks) lives in sync.Pool-backed
// caches that survive across solves, so a warmed Solver allocates
// substantially less per Solve than the one-shot path.
//
// All methods are safe for concurrent use. Results are bit-identical to
// the one-shot Solve with the same Options: reuse, worker bounds and
// tracing never change what is computed.
type Solver struct {
	o      Options // validated configuration (SkipVerify et al. included)
	tracer Tracer
	run    *par.Runner // the Solver-owned worker budget (no context)
	batch  int         // SolveBatch concurrency (0 = min(len, GOMAXPROCS))

	dfCache  *deframe.Cache
	misCache *mis.Cache
	lowCache *lowdeg.Cache
}

// Option configures a Solver at construction.
type Option func(*Solver) error

// WithOptions imports a legacy Options value wholesale — the bridge the
// compatibility Solve wrapper rides. Later Option arguments override
// individual fields; the fields are re-validated by NewSolver.
func WithOptions(o Options) Option {
	return func(s *Solver) error {
		s.o = o
		return nil
	}
}

// WithAlgorithm selects the solver algorithm (default Deterministic).
// Validated by NewSolver.
func WithAlgorithm(a Algorithm) Option {
	return func(s *Solver) error { s.o.Algorithm = a; return nil }
}

// WithWorkers bounds the Solver's worker goroutines per parallel loop.
// n <= 0 defers to the process default (GOMAXPROCS; in-module code can
// move it with par.SetMaxWorkers). An explicit positive bound is owned by
// this Solver: concurrent Solvers with different bounds each honor their
// own, and nothing the Solver does mutates the process default.
func WithWorkers(n int) Option {
	return func(s *Solver) error { s.o.Workers = n; return nil }
}

// WithSeed sets the seed for the Randomized and GreedySequential
// algorithms (ignored by the deterministic ones).
func WithSeed(seed uint64) Option {
	return func(s *Solver) error { s.o.Seed = seed; return nil }
}

// WithSeedBits caps the PRG seed space for derandomization
// (0 = Θ(log Δ) auto, capped at 12). Validated by NewSolver.
func WithSeedBits(bits int) Option {
	return func(s *Solver) error { s.o.SeedBits = bits; return nil }
}

// WithNisan switches the derandomizer to the Nisan-style PRG.
func WithNisan(on bool) Option {
	return func(s *Solver) error { s.o.UseNisan = on; return nil }
}

// WithBitwise selects bit-by-bit conditional expectations instead of full
// parallel seed enumeration.
func WithBitwise(on bool) Option {
	return func(s *Solver) error { s.o.Bitwise = on; return nil }
}

// WithBins sets the sparsification fan-out n^δ (0 = auto). Validated by
// NewSolver.
func WithBins(bins int) Option {
	return func(s *Solver) error { s.o.Bins = bins; return nil }
}

// WithMidDegree sets the degree threshold below which nodes skip
// sparsification (0 = auto).
func WithMidDegree(d int) Option {
	return func(s *Solver) error { s.o.MidDegree = d; return nil }
}

// WithLowDeg sets the HKNT low-degree cutoff (0 = scaled auto).
func WithLowDeg(d int) Option {
	return func(s *Solver) error { s.o.LowDeg = d; return nil }
}

// WithDegreeRanges makes the Randomized solver peel degree ranges
// high-to-low.
func WithDegreeRanges(on bool) Option {
	return func(s *Solver) error { s.o.DegreeRanges = on; return nil }
}

// WithVerify toggles the built-in output verification (default on).
func WithVerify(on bool) Option {
	return func(s *Solver) error { s.o.SkipVerify = !on; return nil }
}

// WithTrace attaches a phase observer to every solve this Solver runs.
func WithTrace(t Tracer) Option {
	return func(s *Solver) error { s.tracer = t; return nil }
}

// WithDegreeShard solves on the degree-sorted sharded relabeling of the
// input graph — vertices permuted into cache-resident, degree-sorted
// shards — and maps the coloring back to original ids through the inverse
// permutation. Verification always runs against the original instance.
func WithDegreeShard(on bool) Option {
	return func(s *Solver) error { s.o.DegreeShard = on; return nil }
}

// WithBatchConcurrency bounds how many instances SolveBatch streams
// through the Solver concurrently (0 = min(len(instances), GOMAXPROCS)).
// Validated by NewSolver.
func WithBatchConcurrency(n int) Option {
	return func(s *Solver) error { s.batch = n; return nil }
}

// NewSolver validates the configuration once and returns a reusable
// Solver. The zero configuration (no options) is the deterministic
// Theorem 1 solver with auto-tuned parameters.
//
// Validation is intentionally centralized here — Option constructors and
// WithOptions are plain setters — so every construction path agrees on
// the accepted ranges. For compatibility with the historical Solve
// semantics, a non-positive worker bound normalizes to "process default"
// rather than erroring.
func NewSolver(opts ...Option) (*Solver, error) {
	s := &Solver{}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.o.Workers < 0 {
		s.o.Workers = 0 // legacy Solve ignored non-positive bounds
	}
	// SeedBits ≤ 24 guards the 2^bits seed-space materializations (and
	// condexp's own 30-bit panic threshold) long before they become
	// multi-gigabyte tables.
	if s.o.SeedBits < 0 || s.o.SeedBits > 24 {
		return nil, fmt.Errorf("parcolor: seed bits %d outside [0, 24]", s.o.SeedBits)
	}
	if s.o.Bins < 0 || s.o.Bins == 1 {
		return nil, fmt.Errorf("parcolor: bins must be 0 (auto) or ≥ 2, got %d", s.o.Bins)
	}
	if s.o.MidDegree < 0 {
		return nil, fmt.Errorf("parcolor: negative mid-degree %d", s.o.MidDegree)
	}
	if s.o.LowDeg < 0 {
		return nil, fmt.Errorf("parcolor: negative low-degree cutoff %d", s.o.LowDeg)
	}
	if s.batch < 0 {
		return nil, fmt.Errorf("parcolor: negative batch concurrency %d", s.batch)
	}
	switch s.o.Algorithm {
	case Deterministic, Randomized, GreedySequential, LowDegreeDeterministic,
		JonesPlassmann, LubyColoring:
	default:
		return nil, fmt.Errorf("parcolor: unknown algorithm %d", s.o.Algorithm)
	}
	s.run = par.NewRunner(s.o.Workers)
	s.dfCache = deframe.NewCache()
	s.misCache = mis.NewCache()
	s.lowCache = lowdeg.NewCache()
	return s, nil
}

// Options returns the Solver's validated configuration snapshot.
func (s *Solver) Options() Options { return s.o }

// runner derives the per-call runner: the Solver's worker budget plus the
// call's cancellation context.
func (s *Solver) runner(ctx context.Context) *par.Runner {
	return s.run.WithContext(ctx)
}

// Solve colors the instance with the configured algorithm and verifies the
// result (unless verification is disabled). ctx cancels the solve promptly
// — between phases and inside every seed walk — returning ctx's error; a
// nil ctx means context.Background().
func (s *Solver) Solve(ctx context.Context, in *Instance) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Degree sharding: permute the instance into the degree-sorted
	// cache-resident layout, solve the permuted instance, and map the
	// coloring back through the inverse permutation. Verification below
	// always runs against the caller's original instance.
	solveIn := in
	var rl *graph.Relabeling
	if s.o.DegreeShard {
		rl = graph.DegreeSorted(in.G)
		pg := rl.Apply(s.runner(ctx), in.G)
		pal := make([][]int32, in.G.N())
		for i, old := range rl.OldOf {
			pal[i] = in.Palettes[old]
		}
		solveIn = &Instance{G: pg, Palettes: pal}
	}
	var (
		res *Result
		err error
	)
	switch s.o.Algorithm {
	case Randomized:
		res, err = s.solveRandomized(ctx, solveIn)
	case GreedySequential:
		res, err = s.solveGreedy(solveIn)
	case LowDegreeDeterministic:
		res, err = s.solveLowDeg(ctx, solveIn)
	case JonesPlassmann:
		res, err = s.solveJP(ctx, solveIn)
	case LubyColoring:
		res, err = s.solveLuby(ctx, solveIn)
	default:
		res, err = s.solveDeterministic(ctx, solveIn, rl)
	}
	if err != nil {
		return nil, err
	}
	if rl != nil {
		res.Coloring = &Coloring{Colors: rl.MapBack(res.Coloring.Colors)}
	}
	if !s.o.SkipVerify {
		if err := d1lc.Verify(in, res.Coloring); err != nil {
			return nil, fmt.Errorf("parcolor: internal error, solver produced invalid coloring: %w", err)
		}
	}
	res.DistinctColors = greedy.DistinctColors(res.Coloring)
	return res, nil
}

// SolveBatch streams the instances through the Solver concurrently — up to
// the configured batch concurrency at a time — sharing the warm scratch
// pools and the attached Tracer across all of them. results[i] is instance
// i's result, or nil if it failed; the returned error is the first
// per-instance error in index order (remaining instances still run to
// completion unless ctx itself is cancelled). Each instance's result is
// bit-identical to a standalone Solve.
func (s *Solver) SolveBatch(ctx context.Context, ins []*Instance) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(ins))
	errs := make([]error, len(ins))
	if len(ins) == 0 {
		return results, nil
	}
	conc := s.batch
	if conc == 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > len(ins) {
		conc = len(ins)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	for i := range ins {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.Solve(ctx, ins[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

func (s *Solver) deframeOptions(tr Tracer) deframe.Options {
	dopt := deframe.Options{
		SeedBits: s.o.SeedBits,
		Bitwise:  s.o.Bitwise,
		Tunables: hknt.Tunables{LowDeg: s.o.LowDeg},
		Par:      s.run,
		Trace:    tr,
		Cache:    s.dfCache,
	}
	if s.o.UseNisan {
		dopt.PRG = deframe.PRGNisan
	}
	return dopt
}

// solveDeterministic is Theorem 1: LowSpaceColorReduce over the deframe
// base solver. Rounds are accounted for parallel composition: base
// instances at one recursion level run concurrently on disjoint machine
// groups, so the level cost is the maximum, not the sum. rl is the
// degree-shard relabeling the instance was permuted by (nil when
// unsharded); its shard cuts feed the partitioner's shard-aware loops.
func (s *Solver) solveDeterministic(ctx context.Context, in *Instance, rl *graph.Relabeling) (*Result, error) {
	rounds := 0
	deferral := 0.0
	var statMu sync.Mutex // base runs concurrently across restricted bins
	dopt := s.deframeOptions(s.tracer)
	// The caller's graph is the one identity that recurs across solves of
	// the same instance; everything else deframe sees is per-solve.
	dopt.MemoGraph = in.G
	base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
		col, rep, err := deframe.Run(ctx, sub, dopt)
		if err != nil {
			return nil, err
		}
		statMu.Lock()
		if r := rep.TotalRounds(); r > rounds {
			rounds = r
		}
		if f := rep.MaxDeferralFraction(); f > deferral {
			deferral = f
		}
		statMu.Unlock()
		return col, nil
	}
	sopt := sparsify.Options{
		Bins:      s.o.Bins,
		MidDegree: s.o.MidDegree,
		Par:       s.run,
		Trace:     s.tracer,
	}
	if rl != nil {
		sopt.ShardOffsets = rl.ShardOffsets
	}
	col, srep, err := sparsify.ColorReduce(ctx, in, sopt, base)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: rounds, Sparsify: srep, DeferralFraction: deferral}, nil
}

func (s *Solver) solveRandomized(ctx context.Context, in *Instance) (*Result, error) {
	r := s.runner(ctx)
	if s.o.DegreeRanges {
		st := hknt.NewState(in)
		st.Par = r
		if _, err := hknt.RangedRandomizedColor(st, s.o.Seed, hknt.Tunables{LowDeg: s.o.LowDeg}); err != nil {
			return nil, err
		}
		return &Result{Coloring: st.Col, Rounds: st.Meter.Rounds}, nil
	}
	col, st, _, err := hknt.RandomizedColor(r, in, s.o.Seed, hknt.Tunables{LowDeg: s.o.LowDeg})
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Meter.Rounds}, nil
}

func (s *Solver) solveGreedy(in *Instance) (*Result, error) {
	col, err := greedy.Color(in, greedy.ByID, s.o.Seed)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col}, nil
}

// solveJP is the Jones–Plassmann classical baseline: no derandomization,
// one trace phase per local-maxima round under engine "jp".
func (s *Solver) solveJP(ctx context.Context, in *Instance) (*Result, error) {
	col, st, err := jp.Color(ctx, s.runner(ctx), in, s.o.Seed, s.tracer)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Rounds}, nil
}

// solveLuby is the Luby-MIS classical baseline: repeated randomized MIS
// on the uncolored residual, one trace phase per MIS under engine "luby".
// Rounds reports total Luby rounds (the depth proxy), not phases.
func (s *Solver) solveLuby(ctx context.Context, in *Instance) (*Result, error) {
	col, st, err := mis.LubyColor(ctx, s.runner(ctx), in, s.o.Seed, s.tracer)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Rounds}, nil
}

func (s *Solver) solveLowDeg(ctx context.Context, in *Instance) (*Result, error) {
	sb := s.o.SeedBits
	if sb == 0 {
		sb = 10
	}
	col, stats, err := lowdeg.IterativeDerandomized(ctx, in, lowdeg.Options{
		SeedBits: sb,
		Bitwise:  s.o.Bitwise,
		Par:      s.run,
		Trace:    s.tracer,
		Cache:    s.lowCache,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: stats.Rounds}, nil
}

// MPCOption configures one SolveOnMPC run's transport and fault
// tolerance. The zero configuration — in-process loopback, no deadline,
// no retries, no fallback — is byte-identical to the historical engine.
type MPCOption func(*mpcRunConfig)

type mpcRunConfig struct {
	transport MPCTransport
	faults    *FaultSchedule
	retry     MPCRetryPolicy
	deadline  time.Duration
	fallback  bool
}

// WithMPCTransport routes every cluster round through tp instead of the
// in-process loopback. nil restores the default.
func WithMPCTransport(tp MPCTransport) MPCOption {
	return func(c *mpcRunConfig) { c.transport = tp }
}

// WithMPCFaults wraps the run's transport (the loopback, or whatever
// WithMPCTransport installed) in a deterministic fault injector driven by
// the schedule. Injected fault counts surface in MPCResult.FaultEvents
// and, per event, on the attached Tracer under engine "transport".
func WithMPCFaults(sched FaultSchedule) MPCOption {
	return func(c *mpcRunConfig) { c.faults = &sched }
}

// WithMPCRetry lets each protocol phase (palette exchange, seed
// selection, commit, residue gather) re-attempt after a classified
// transport fault, with exponential backoff and deterministic jitter.
// Every retried phase rebuilds its staging from host state and defers
// durable mutations until delivery is verified, so retries change only
// the cost accounting — never the coloring.
func WithMPCRetry(p MPCRetryPolicy) MPCOption {
	return func(c *mpcRunConfig) { c.retry = p }
}

// WithMPCDeadline bounds each engine round: a transport whose simulated
// (or real) delivery would exceed d fails the round with
// ErrMPCRoundTimeout instead of stalling the synchronous schedule. 0
// disables the bound.
func WithMPCDeadline(d time.Duration) MPCOption {
	return func(c *mpcRunConfig) { c.deadline = d }
}

// WithMPCFallback degrades gracefully when the retry budget is
// exhausted: instead of surfacing the transport fault, the solve re-runs
// the same deterministic protocol on a fresh fault-free in-process
// cluster. The result is then bit-identical to a fault-free run, with
// Degraded/DegradedReason recording the abandoned lossy attempt.
func WithMPCFallback(enabled bool) MPCOption {
	return func(c *mpcRunConfig) { c.fallback = enabled }
}

// SolveOnMPC runs the model-faithful MPC solver on this Solver's harness:
// ctx cancels at every engine round boundary, the cluster's simulation
// concurrency rides the Solver's worker budget, and the attached Tracer
// observes one phase per derandomized TRC round. See the package-level
// SolveOnMPC for the algorithm's description.
//
// opts select the transport and fault-tolerance policy. On a lossy
// transport the solve retries faulted phases under WithMPCRetry; if the
// budget runs out it either falls back to a fault-free in-process run
// (WithMPCFallback) or returns a classified error (ErrMPCRoundTimeout,
// ErrMPCMachineLost, ErrMPCSegmentLost) — by construction it never
// returns a coloring that differs from the fault-free one.
func (s *Solver) SolveOnMPC(ctx context.Context, in *Instance, localSpace, seedBits int, opts ...MPCOption) (*MPCResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Check(); err != nil {
		return nil, err
	}
	if localSpace == 0 {
		localSpace = 1 << 16
	}
	if seedBits == 0 {
		seedBits = 6
	}
	var rc mpcRunConfig
	for _, o := range opts {
		if o != nil {
			o(&rc)
		}
	}
	tp := rc.transport
	var injector *faultinject.Transport
	if rc.faults != nil {
		injector = faultinject.New(tp, *rc.faults, s.tracer)
		tp = injector
	}
	c, err := mpc.NewCluster(mpc.Config{
		Machines:      in.G.N() + 1,
		LocalSpace:    localSpace,
		Par:           s.run,
		Transport:     tp,
		RoundDeadline: rc.deadline,
	})
	if err != nil {
		return nil, err
	}
	col, stats, err := mpc.DeterministicColorMPC(ctx, c, in, seedBits, 0, s.tracer, mpc.RoundOptions{
		Retry: rc.retry,
	})
	degraded := false
	degradedReason := ""
	if err != nil {
		if !rc.fallback || !mpc.IsTransportFault(err) || ctx.Err() != nil {
			return nil, err
		}
		// Graceful degradation: the lossy transport is beyond its retry
		// budget. Re-run the identical deterministic protocol on a fresh
		// fault-free in-process cluster — same instance, same seeds, so
		// the coloring is bit-identical to a fault-free oracle run.
		degraded, degradedReason = true, err.Error()
		sp := trace.Begin(s.tracer, "mpc", "fallback", 0, in.G.N())
		lossyRetries := c.Metrics.Retries
		c, err = mpc.NewCluster(mpc.Config{Machines: in.G.N() + 1, LocalSpace: localSpace, Par: s.run})
		if err != nil {
			sp.End(0, 0, 0)
			return nil, err
		}
		col, stats, err = mpc.DeterministicColorMPC(ctx, c, in, seedBits, 0, s.tracer, mpc.RoundOptions{})
		if err != nil {
			sp.End(0, 0, 0)
			return nil, err
		}
		stats.Retries += lossyRetries
		sp.End(0, in.G.N(), 0)
	}
	if err := d1lc.Verify(in, col); err != nil {
		return nil, fmt.Errorf("parcolor: internal error, MPC solver produced invalid coloring: %w", err)
	}
	var faultEvents int64
	if injector != nil {
		fs := injector.Stats()
		faultEvents = fs.Drops + fs.Dups + fs.Reorders + fs.Timeouts + fs.CrashedRounds
	}
	m := c.Metrics
	return &MPCResult{
		Coloring:       col,
		MPCRounds:      stats.MPCRounds,
		TrialRounds:    stats.TRCRounds,
		MaxStored:      m.MaxStored,
		MaxSent:        m.MaxSent,
		MaxReceived:    m.MaxReceived,
		Violations:     m.Violations,
		Machines:       len(c.Machines),
		Retries:        stats.Retries,
		FaultEvents:    faultEvents,
		Degraded:       degraded,
		DegradedReason: degradedReason,
	}, nil
}

// MIS computes a maximal independent set with the derandomized Luby
// algorithm on this Solver's harness: ctx cancels between rounds and
// inside seed walks, workers are bounded by the Solver's budget, scratch
// comes from the shared pools, the attached Tracer observes one phase per
// Luby round, and the Solver's SeedBits/Bitwise selections apply to the
// per-round seed selection.
func (s *Solver) MIS(ctx context.Context, g *graph.Graph) (MISResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := mis.Derandomized(ctx, g, mis.Options{
		SeedBits: s.o.SeedBits,
		Bitwise:  s.o.Bitwise,
		Par:      s.run,
		Trace:    s.tracer,
		Cache:    s.misCache,
	})
	if err != nil {
		return MISResult{}, err
	}
	return MISResult{InSet: r.InSetNodes(), Rounds: r.Rounds}, nil
}

// --- Compatibility wrappers -------------------------------------------------

// defaultSolverOnce holds the process-wide Solver behind the package-level
// compatibility wrappers (SolveOnMPC, MISDeterministic). Its pools warm up
// across calls exactly like an explicitly constructed Solver's.
var (
	defaultSolverOnce sync.Once
	defaultSolverVal  *Solver
)

func defaultSolver() *Solver {
	defaultSolverOnce.Do(func() {
		s, err := NewSolver()
		if err != nil {
			panic(err) // zero options always validate
		}
		defaultSolverVal = s
	})
	return defaultSolverVal
}

// Solve colors the instance with the selected algorithm and verifies the
// result (unless SkipVerify): the compatibility wrapper constructing a
// one-shot Solver from o. Prefer NewSolver + Solver.Solve for reuse,
// cancellation, scoped workers and tracing — results are bit-identical
// for every configuration the Solver accepts. Options now pass through
// NewSolver's validation, so out-of-range values (SeedBits outside
// [0, 24], Bins == 1, unknown Algorithm) return an error instead of
// running; non-positive Workers still mean "process default" as before.
func Solve(in *Instance, o Options) (*Result, error) {
	s, err := NewSolver(WithOptions(o))
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), in)
}
