// Package lowdeg provides the deterministic low-degree D1LC solver that
// stands in for Lemma 14 of [CDP21c] (the paper uses it as a black box for
// instances with polylogarithmic maximum degree, and for the
// post-shattering residue).
//
// Two deterministic strategies are provided, mirroring the two situations
// the paper invokes Lemma 14 in:
//
//   - IterativeDerandomized: rounds of color trials where each node's
//     candidate is drawn by a seeded hash and the seed is chosen by the
//     method of conditional expectations to color at least the expected
//     fraction of live nodes. Under a pairwise-independent family each
//     round colors a constant fraction in expectation, so the chosen seed
//     colors a constant fraction deterministically; a greedy fallback on a
//     zero-progress round makes termination unconditional. This is the
//     [CDP21b]-style bounded-independence derandomization.
//
//   - ComponentGreedy: for shattered residues (small components), gather
//     each connected component and color it greedily — the MPC "collect
//     the component onto one machine" step, feasible whenever component
//     sizes fit in local space.
//
// The round-complexity gap versus the paper (O(log n) vs O(log log log n))
// is confined to this base case and reported separately in the E1 table;
// see DESIGN.md "Substitutions".
package lowdeg

import (
	"context"
	"fmt"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/rng"
	"parcolor/internal/trace"
)

// Options configures the iterative solver.
type Options struct {
	// SeedBits is the per-round seed space (default 10 → 1024 seeds).
	SeedBits int
	// MaxRounds caps trial rounds before greedy takeover (default 8·log₂n+16).
	MaxRounds int
	// Bitwise switches seed selection from flat enumeration to the
	// bit-by-bit method of conditional expectations (same guarantee; the
	// branch means are subset sums of precomputed totals).
	Bitwise bool
	// Par scopes the round's parallel loops and seed walks to an explicit
	// worker budget; IterativeDerandomized derives a context-carrying copy
	// from its ctx argument. nil means the process default.
	Par *par.Runner
	// Trace observes one phase per trial round. nil disables tracing.
	Trace trace.Tracer
	// Cache pools contribution tables, per-worker scratch and run states
	// across rounds and runs. nil means pooling within one run.
	Cache *Cache

	// selectSeed replaces selectRound when non-nil: the seam the
	// package's tests route the naive per-seed oracle through.
	selectSeed func(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, []int32, error)
}

// Cache holds the iterative solver's reusable allocations across rounds —
// and, when owned by a long-lived Solver, across whole runs: the seed
// engine's contribution tables and per-worker trial scratch, and run
// states. sync.Pool-backed and safe for concurrent runs.
type Cache struct {
	seeds  condexp.Cache[trialScratch]
	states hknt.StatePool
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Stats reports a run.
type Stats struct {
	Rounds         int
	GreedyFallback int // nodes colored by zero-progress fallbacks
	Certificates   []condexp.Result
}

// IterativeDerandomized colors the instance deterministically by
// conditional-expectation-selected trial rounds. Seed scoring runs on
// condexp.Select (engine.go). Always returns a complete proper coloring
// (or an error only for invalid instances and cancellation).
//
// ctx cancels the run between rounds and inside every seed walk; on
// cancellation IterativeDerandomized returns ctx's error and no coloring.
// Parallelism is scoped by o.Par (nil = process default).
func IterativeDerandomized(ctx context.Context, in *d1lc.Instance, o Options) (*d1lc.Coloring, Stats, error) {
	n := in.G.N()
	if o.SeedBits == 0 {
		o.SeedBits = 10
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 8*log2(n+2) + 16
	}
	o.Par = o.Par.WithContext(ctx)
	if o.Cache == nil {
		o.Cache = NewCache()
	}
	st := o.Cache.states.Get(in)
	defer o.Cache.states.Put(st) // runs after the returned st.Col is captured
	st.Par = o.Par
	var stats Stats
	for r := 0; r < o.MaxRounds; r++ {
		if err := o.Par.Err(); err != nil {
			return nil, stats, err
		}
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		sp := trace.Begin(o.Trace, "lowdeg", "trial-round", r, len(parts))
		selectSeed := selectRound
		if o.selectSeed != nil {
			selectSeed = o.selectSeed
		}
		sel, wins, err := selectSeed(st, parts, uint64(r), o)
		if err != nil {
			sp.End(0, 0, 0)
			return nil, stats, err
		}
		stats.Certificates = append(stats.Certificates, sel)
		stats.Rounds++
		if sel.Score == 0 {
			// No seed colors anything (tiny family on adversarial state):
			// force progress by greedily coloring the lowest live node.
			v := parts[0]
			c, err := firstFree(st, v)
			if err != nil {
				sp.End(sel.Evals, 0, 0)
				return nil, stats, err
			}
			st.SetColor(v, c)
			stats.GreedyFallback++
			sp.End(sel.Evals, 1, 0)
			continue
		}
		prop := hknt.NewProposal(n)
		for i := 0; i < len(wins); i += 2 {
			prop.SetWin(wins[i], wins[i+1])
		}
		colored := st.Apply(prop)
		sp.End(sel.Evals, colored, 0)
	}
	if err := hknt.FinishGreedy(st); err != nil {
		return nil, stats, err
	}
	return st.Col, stats, nil
}

// selectRound is IterativeDerandomized's seed selection: the trial engine
// on condexp.Select. It returns the chosen seed's winners as (node,
// color) pairs.
func selectRound(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, []int32, error) {
	e := newTrialEngine(st, parts, round)
	return condexp.Select(o.Par, &o.Cache.seeds, e, len(parts), o.SeedBits, o.Bitwise)
}

// proposeRound computes the trial proposal's colors for a (seed, round)
// pair: node v's candidate is Rem[v][h(seed, v, round) mod |Rem[v]|];
// winners are the candidates no neighbor duplicated. The win mask is left
// empty.
func proposeRound(st *hknt.State, parts []int32, seed, round uint64) hknt.Proposal {
	n := st.In.G.N()
	cand := make([]int32, n)
	for i := range cand {
		cand[i] = d1lc.Uncolored
	}
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		if len(st.Rem[v]) == 0 {
			return
		}
		h := rng.Hash3(seed, uint64(v), round)
		cand[v] = st.Rem[v][h%uint64(len(st.Rem[v]))]
	})
	prop := hknt.NewProposal(n)
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		c := cand[v]
		if c == d1lc.Uncolored {
			return
		}
		for _, u := range st.In.G.Neighbors(v) {
			if cand[u] == c {
				return
			}
		}
		prop.Color[v] = c
	})
	return prop
}

func firstFree(st *hknt.State, v int32) (int32, error) {
	for _, c := range st.Rem[v] {
		free := true
		for _, u := range st.In.G.Neighbors(v) {
			if st.Col.Colors[u] == c {
				free = false
				break
			}
		}
		if free {
			return c, nil
		}
	}
	return d1lc.Uncolored, fmt.Errorf("lowdeg: node %d has no free color (invalid instance)", v)
}

// ComponentGreedy colors the instance by gathering connected components
// and coloring each greedily. maxComponent bounds the component size a
// single "machine" may hold (0 = unbounded); components exceeding it are
// reported in the error, mirroring the MPC space constraint.
func ComponentGreedy(in *d1lc.Instance, maxComponent int) (*d1lc.Coloring, error) {
	comp, sizes := graph.Components(in.G)
	if maxComponent > 0 {
		for id, s := range sizes {
			if int(s) > maxComponent {
				return nil, fmt.Errorf("lowdeg: component %d has %d nodes > machine capacity %d",
					id, s, maxComponent)
			}
		}
	}
	col := d1lc.NewColoring(in.G.N())
	// Components are independent; color each in parallel.
	buckets := make([][]int32, len(sizes))
	for v := int32(0); v < int32(in.G.N()); v++ {
		buckets[comp[v]] = append(buckets[comp[v]], v)
	}
	errs := make([]error, len(buckets))
	par.For(len(buckets), func(ci int) {
		for _, v := range buckets[ci] {
			blocked := map[int32]bool{}
			for _, u := range in.G.Neighbors(v) {
				if c := col.Colors[u]; c != d1lc.Uncolored {
					blocked[c] = true
				}
			}
			assigned := false
			for _, c := range in.Palettes[v] {
				if !blocked[c] {
					col.Colors[v] = c
					assigned = true
					break
				}
			}
			if !assigned {
				errs[ci] = fmt.Errorf("lowdeg: no free color for node %d", v)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return col, nil
}

// MaxComponentSize reports the largest component of g: the shattering
// metric of experiment E5.
func MaxComponentSize(g *graph.Graph) int {
	_, sizes := graph.Components(g)
	maxS := 0
	for _, s := range sizes {
		if int(s) > maxS {
			maxS = int(s)
		}
	}
	return maxS
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
