// Package deframe is the paper's primary contribution: the black-box
// derandomization framework of Section 4.
//
//   - Definition 5 (normal (τ,Δ)-round distributed procedures) is realized
//     by hknt.Step: a pure randomized trial with declared round count τ and
//     per-node bit budget, a strong success property SSP evaluated on the
//     proposed outputs, and the structural guarantee — verified by tests —
//     that deferring failed nodes only improves the remaining nodes (slack
//     is monotone under deferral).
//
//   - Lemma 10 is DerandomizeStep: distribute one PRG output string into
//     per-node chunks via a coloring of G^{4τ} (Linial on the power graph,
//     or identity chunking when the power graph exceeds the space budget),
//     select the seed by the method of conditional expectations over the
//     measured failure count, commit the winning proposal, and defer the
//     SSP failures. Seed selection runs on condexp.Select, the seed engine
//     shared with mis and lowdeg: the participants are partitioned into
//     machine-local chunks, one parallel pass over the seed space fills a
//     [seeds × chunks] contribution table with pooled per-worker scratch
//     (engine.go: PRG re-expansion of only the step's live chunks,
//     reusable proposals whose win sets are internal/bitset masks so
//     win-counting chunks are popcounts), a parallel converge-cast
//     aggregates per-seed totals, and both flat and bitwise selection
//     reduce to table aggregation — the paper's "each machine scores its
//     nodes for every seed, then converge-cast" structure. The winning
//     proposal is kept during the walk, never recomputed. The package's
//     tests pin every step's seed, score and certificate to a naive
//     per-seed rescoring oracle.
//
//   - Theorem 12 is Run: derandomize the schedule step by step, then
//     recurse on the deferred set through D1LC self-reducibility
//     (Definition 11), and finish the O(1)-depth residue greedily on one
//     machine. The result is an unconditionally correct deterministic
//     solver whose deferral rates — the quantity Lemma 10 bounds by
//     nG/2 + nG·Δ^{−11τ} — are measured by experiment E3.
package deframe

import (
	"context"
	"math"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/linial"
	"parcolor/internal/par"
	"parcolor/internal/prg"
	"parcolor/internal/trace"
)

// PRGKind selects the generator family used for chunk expansion.
type PRGKind int

// Available PRG families (experiment E6 sweeps them).
const (
	// PRGKWise uses the k-wise polynomial generator (default, k=4).
	PRGKWise PRGKind = iota
	// PRGNisan uses the Nisan-style recursive generator.
	PRGNisan
)

// Options configures the derandomizer. Zero values take defaults.
type Options struct {
	// PRG selects the generator family.
	PRG PRGKind
	// KWiseK is the independence parameter for PRGKWise (default 4).
	KWiseK int
	// SeedBits caps the PRG seed length; the seed space 2^SeedBits is fully
	// enumerated by the method of conditional expectations (default:
	// Θ(log Δ) per the paper, capped at 12 → ≤4096 seeds).
	SeedBits int
	// Bitwise switches seed selection from parallel full enumeration to
	// the bit-by-bit method of conditional expectations (same guarantee,
	// structured as the classical method; the branch means are subset sums
	// of precomputed totals, so it costs the same 2^SeedBits evaluations as
	// flat selection instead of ~2×).
	Bitwise bool
	// ChunkRadius is the power-graph radius for chunk assignment
	// (Lemma 10 uses 4τ; default 4·max τ of the schedule).
	ChunkRadius int
	// MaxChunkGraphEdges bounds the materialized power graph; beyond it
	// the derandomizer falls back to identity chunking (one chunk per
	// node), which preserves correctness and costs only PRG output length.
	// Each node's ball may hold max(MaxChunkGraphEdges/n, 8) nodes. When
	// the ball of one maximum-degree node already overflows that, or is
	// large enough that Linial's algorithm cannot reduce below n colors,
	// identity chunks are returned without building the power graph.
	// Default 2_000_000.
	MaxChunkGraphEdges int
	// MaxDepth is the recursion depth over deferred residues before the
	// greedy base case (Theorem 12's r = O(1/δ); default 3).
	MaxDepth int
	// GreedyThreshold: residues at most this size skip recursion and go
	// straight to the single-machine greedy (default 64).
	GreedyThreshold int
	// Tunables configures the underlying HKNT pipeline.
	Tunables hknt.Tunables
	// Par scopes every parallel loop (trial proposes, table fills,
	// converge-casts) to an explicit worker budget. nil means the process
	// default. Run derives a context-carrying copy from its ctx argument,
	// so cancellation reaches the seed walks through the same handle.
	Par *par.Runner
	// Trace observes phase enter/exit events (one phase per derandomized
	// step, plus the greedy base case). nil disables tracing.
	Trace trace.Tracer
	// Cache pools contribution tables, per-worker seed-evaluation scratch,
	// run states and reduction arenas across steps and runs. nil means
	// pooling within one Run (or one DerandomizeStep call).
	Cache *Cache
	// MemoGraph, when non-nil, marks the caller's reusable root graph:
	// chunk assignments are memoized in the Cache only for this graph, so
	// repeated solves of the same instance skip the power-graph
	// construction while per-solve throwaway graphs (sparsify bins,
	// recursion residuals) never churn or pin the memo.
	MemoGraph *graph.Graph

	// selectSeed replaces selectStep when non-nil: the seam the package's
	// tests route the naive per-seed oracle through.
	selectSeed func(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, int64, error)
}

func (o Options) withDefaults(delta int) Options {
	if o.KWiseK == 0 {
		o.KWiseK = 4
	}
	if o.SeedBits == 0 {
		o.SeedBits = prg.SeedBitsForDelta(delta, 12)
	}
	if o.ChunkRadius == 0 {
		o.ChunkRadius = 8 // 4τ with τ=2 (TryRandomColor/MultiTrial shape)
	}
	if o.MaxChunkGraphEdges == 0 {
		o.MaxChunkGraphEdges = 2_000_000
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 3
	}
	if o.GreedyThreshold == 0 {
		o.GreedyThreshold = 64
	}
	return o
}

// StepReport is the per-step accounting of one Lemma 10 invocation.
type StepReport struct {
	Name         string
	Participants int
	Colored      int
	Deferred     int
	SeedChosen   uint64
	SeedSpace    int
	Score        int64 // chosen seed's objective value
	MeanUpper    int64 // certificate: Score ≤ MeanUpper
	Evals        int   // scorer invocations spent selecting the seed
	// ExpandedBits counts the chunk bits expanded while scoring the seed
	// space: seeds × live chunks × Bits (the chunks of the nodes Propose
	// reads). Deterministic, so it records the expansion saving on any
	// host.
	ExpandedBits int64
	Chunks       int
	PRGName      string
}

// Report aggregates a full Run.
type Report struct {
	Steps         []StepReport
	LocalRounds   int
	Depth         int // recursion depth actually used
	GreedyResidue int // nodes colored by the final greedy
	ChunkMode     string
	Recursed      *Report // report of the recursive call, if any
}

// TotalDeferred sums deferrals across steps at this level.
func (r *Report) TotalDeferred() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Deferred
	}
	return n
}

// chunkAssignment colors G^radius (Lemma 10's G^{4τ}) with Linial's
// algorithm, falling back to identity chunks when the power graph is too
// large to materialize under the space budget. The power-graph build and
// coloring — the last leaf construction phases of a solve — run on r's
// workers (nil = process default), so a budget-scoped solve never fans
// out past its bound even while constructing.
//
// Before building, one bounded BFS from a maximum-degree node certifies
// the two outcomes that need no build. If that ball exceeds the per-node
// budget, the build would fail on it: identity chunks, mode "identity".
// If its size b passes Linial's no-progress test (nextPrime(b+1)² ≥ n),
// then so does Δ(G^radius) ≥ b, so the coloring would stop at round 0 and
// normalize to the identity: identity chunks, mode "linial-power". Dense
// graphs, where Δ(G^radius) ≫ √n, take this path and skip the build.
// chunkOf and numChunks always equal the build's; only the mode label can
// differ, when the probe ball fits but another node's ball (or the total
// edge count) would have overflowed: the build reported "identity", the
// shortcut reports "linial-power".
func chunkAssignment(r *par.Runner, g *graph.Graph, radius, maxEdges int) (chunkOf []int32, numChunks int, mode string) {
	n := g.N()
	if n == 0 {
		return nil, 0, "empty"
	}
	maxBall := maxInt(maxEdges/n, 8)
	mode = "identity"
	if size, ok := graph.BallSize(g, maxDegreeNode(g), radius, maxBall); ok {
		if linial.AtFixedPoint(size, n) {
			mode = "linial-power"
		} else if power, err := graph.PowerGraphPar(r, g, radius, maxBall); err == nil && power.M() <= maxEdges {
			res := linial.ColorPar(r, power)
			dense, count := linial.Normalize(res.Colors)
			return dense, count, "linial-power"
		}
	}
	chunkOf = make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	return chunkOf, n, mode
}

// maxDegreeNode returns the smallest-id node of maximum degree.
func maxDegreeNode(g *graph.Graph) int32 {
	best := int32(0)
	for v := int32(1); v < int32(g.N()); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// buildPRG constructs the generator for a step's chunk requirements.
func buildPRG(o Options, numChunks, bitsPer int) prg.PRG {
	out := prg.RequiredOutputBits(numChunks, bitsPer)
	if out < 64 {
		out = 64
	}
	switch o.PRG {
	case PRGNisan:
		// Choose levels so w·2^L ≥ out with w = 64.
		levels := 0
		for 64<<levels < out {
			levels++
		}
		return prg.NewNisan(64, levels, o.SeedBits)
	default:
		return prg.NewKWise(o.KWiseK, o.SeedBits, out)
	}
}

// DerandomizeStep applies Lemma 10 to one normal procedure: score every
// PRG seed by the step's objective (the number of SSP failures, or −wins
// when the step has no SSP), commit the best seed's proposal, and defer
// the failures. It returns the per-step report.
func DerandomizeStep(st *hknt.State, step *hknt.Step, chunkOf []int32, numChunks int, o Options) (StepReport, error) {
	parts := step.Participants(st)
	rep := StepReport{Name: step.Name, Participants: len(parts), SeedSpace: 1 << o.SeedBits, Chunks: numChunks}
	if len(parts) == 0 {
		return rep, nil
	}
	if o.Cache == nil {
		o.Cache = NewCache()
	}
	sp := trace.Begin(o.Trace, "deframe", step.Name, st.Meter.Rounds, len(parts))
	gen := buildPRG(o, numChunks, step.Bits)
	rep.PRGName = gen.Name()
	sel := selectStep
	if o.selectSeed != nil {
		sel = o.selectSeed
	}
	res, prop, expanded, err := sel(st, step, parts, gen, chunkOf, numChunks, o)
	if err != nil {
		sp.End(0, 0, 0)
		return rep, err
	}
	rep.SeedChosen = res.Seed
	rep.Score = res.Score
	rep.MeanUpper = res.MeanUpper()
	rep.Evals = res.Evals
	rep.ExpandedBits = expanded

	failures := step.Failures(st, parts, prop)
	rep.Colored = st.Apply(prop)
	for _, v := range failures {
		if st.Live(v) {
			st.Defer(v)
			rep.Deferred++
		}
	}
	sp.End(rep.Evals, rep.Colored, rep.Deferred)
	return rep, nil
}

// Run executes Theorem 12 for a D1LC instance: build the HKNT schedule,
// derandomize every step via Lemma 10, recurse on everything left
// uncolored (deferred nodes, put-aside leftovers, low-degree nodes)
// through self-reduction, and finish greedily once the residue is small or
// the depth budget is exhausted. The returned coloring is complete and
// proper for every valid instance.
//
// ctx cancels the run between steps and inside every seed walk; on
// cancellation Run returns ctx's error and no coloring, leaving no
// partially-applied shared state (each run owns its State). Parallelism is
// scoped by o.Par (nil = process default).
func Run(ctx context.Context, in *d1lc.Instance, o Options) (*d1lc.Coloring, *Report, error) {
	o = o.withDefaults(in.G.MaxDegree())
	o.Par = o.Par.WithContext(ctx)
	if o.Cache == nil {
		o.Cache = NewCache()
	}
	return run(in, o, o.MaxDepth)
}

func run(in *d1lc.Instance, o Options, depth int) (*d1lc.Coloring, *Report, error) {
	rep := &Report{Depth: depth}
	st := o.Cache.states.Get(in)
	defer o.Cache.states.Put(st) // runs after the returned st.Col is captured
	st.Par = o.Par
	n := in.G.N()
	if n == 0 {
		return st.Col, rep, nil
	}
	if err := o.Par.Err(); err != nil {
		return nil, rep, err
	}
	if n <= o.GreedyThreshold || depth <= 0 {
		// Base case: the residue fits on one machine (Theorem 12's final
		// greedy step).
		sp := trace.Begin(o.Trace, "deframe", "greedy-residue", st.Meter.Rounds, n)
		if err := hknt.FinishGreedy(st); err != nil {
			sp.End(0, 0, 0)
			return nil, rep, err
		}
		rep.GreedyResidue = n
		st.Meter.Tick(1)
		rep.LocalRounds = st.Meter.Rounds
		sp.End(0, n, 0)
		return st.Col, rep, nil
	}

	build := hknt.BuildColorMiddle(st, o.Tunables)
	if err := o.Par.Err(); err != nil {
		return nil, rep, err // cancelled mid-build: the schedule is empty
	}
	chunkOf, numChunks, mode := o.Cache.getChunks(o.Par, in.G, o.ChunkRadius, o.MaxChunkGraphEdges, in.G == o.MemoGraph)
	rep.ChunkMode = mode
	for i := range build.Schedule.Steps {
		if err := o.Par.Err(); err != nil {
			return nil, rep, err
		}
		step := &build.Schedule.Steps[i]
		sr, err := DerandomizeStep(st, step, chunkOf, numChunks, o)
		if err != nil {
			return nil, rep, err
		}
		st.Meter.Tick(step.Tau)
		rep.Steps = append(rep.Steps, sr)
	}
	if build.Schedule.Finisher != nil {
		build.Schedule.Finisher(st)
		st.Meter.Tick(1)
	}
	rep.LocalRounds = st.Meter.Rounds

	// Residue: every uncolored node (deferred, failed put-aside, or
	// low-degree and never scheduled) re-enters via Definition 11. The
	// reduction rides a pooled arena — stamp-array relabeling instead of
	// per-arc binary search, reused CSR and palette storage — so the
	// recursion's per-level extraction is allocation-free in steady state.
	// The residual instance aliases the arena, which therefore stays
	// checked out until the recursive solve and Apply both finish.
	ar := o.Cache.getReduceArena()
	residual, origOf := ar.ReduceUncolored(o.Par, in, st.Col)
	if residual.N() == 0 {
		o.Cache.reduce.Put(ar)
		return st.Col, rep, nil
	}
	if residual.N() == n {
		// No progress at all (degenerate tunables): avoid infinite
		// recursion by dropping straight to the base case.
		depth = 0
	}
	subCol, subRep, err := run(residual, o, depth-1)
	if err != nil {
		o.Cache.reduce.Put(ar)
		return nil, rep, err
	}
	rep.Recursed = subRep
	d1lc.Apply(st.Col, subCol, origOf)
	o.Cache.reduce.Put(ar)
	return st.Col, rep, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TotalRounds sums LOCAL-round accounting across recursion levels, the
// quantity the E1 table reports (the paper's O(log log log n) counts MPC
// rounds after the Δ² ≤ s simulation, which multiplies by O(1)).
func (r *Report) TotalRounds() int {
	total := r.LocalRounds
	if r.Recursed != nil {
		total += r.Recursed.TotalRounds()
	}
	return total
}

// MaxDeferralFraction returns the largest per-step deferred/participants
// ratio across all levels: the Lemma 10 bound says the *expected* failures
// are at most 1/2 + Δ^{−11τ} of participants under the ideal PRG, and E3
// compares the measured value against it.
func (r *Report) MaxDeferralFraction() float64 {
	maxFrac := 0.0
	for _, s := range r.Steps {
		if s.Participants == 0 {
			continue
		}
		if f := float64(s.Deferred) / float64(s.Participants); f > maxFrac {
			maxFrac = f
		}
	}
	if r.Recursed != nil {
		if f := r.Recursed.MaxDeferralFraction(); f > maxFrac {
			maxFrac = f
		}
	}
	return maxFrac
}

// CertificatesHold reports whether every step's conditional-expectations
// certificate (Score ≤ MeanUpper) held; tests assert it.
func (r *Report) CertificatesHold() bool {
	for _, s := range r.Steps {
		if s.Participants == 0 {
			continue
		}
		if s.Score > s.MeanUpper {
			return false
		}
	}
	if r.Recursed != nil {
		return r.Recursed.CertificatesHold()
	}
	return true
}

// LevelCount returns the number of recursion levels used.
func (r *Report) LevelCount() int {
	if r.Recursed == nil {
		return 1
	}
	return 1 + r.Recursed.LevelCount()
}

// EffectiveSeedBits mirrors the paper's d = Θ(log Δ): exposed for the E6
// ablation tables.
func EffectiveSeedBits(delta int, cap int) int {
	if cap <= 0 {
		cap = 12
	}
	d := prg.SeedBitsForDelta(delta, cap)
	if d < 1 {
		d = 1
	}
	return int(math.Min(float64(d), float64(cap)))
}
