// Package mis implements Luby's randomized maximal-independent-set
// algorithm [Lub86] and its derandomization through the paper's framework.
//
// Section 4.1 uses Luby's algorithm as the worked example of Definition 5:
// one round of Luby (every live node draws a priority; local maxima join
// the set; joined nodes and their neighbors leave) is a normal
// (O(1),Δ)-round procedure whose strong and weak success properties are
// both "v is within distance 1 of the output set". Deferring nodes that
// fail cannot eject anyone from the independent set, so SSP ⇒ WSP under
// any deferral — the package's tests check exactly this implication.
package mis

import (
	"context"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
	"parcolor/internal/rng"
	"parcolor/internal/trace"
)

// NodeState tracks one node during a run.
type NodeState int8

// States of a node.
const (
	Undecided NodeState = iota
	InSet
	Out     // dominated: has a neighbor in the set
	Skipped // deferred by the derandomizer (WSP still holds for others)
)

// Result of a run.
type Result struct {
	State  []NodeState
	Rounds int
	// SeedReports records, for derandomized runs, the per-round seed
	// selection certificates.
	SeedReports []condexp.Result
}

// InSetNodes lists the members of the independent set.
func (r *Result) InSetNodes() []int32 {
	var out []int32
	for v, s := range r.State {
		if s == InSet {
			out = append(out, int32(v))
		}
	}
	return out
}

// IsIndependent checks that no two set members are adjacent.
func IsIndependent(g *graph.Graph, state []NodeState) bool {
	for v := int32(0); v < int32(g.N()); v++ {
		if state[v] != InSet {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if state[u] == InSet {
				return false
			}
		}
	}
	return true
}

// IsMaximal checks that every node outside the set (and not Skipped) has a
// neighbor in the set — the success property of the example.
func IsMaximal(g *graph.Graph, state []NodeState) bool {
	for v := int32(0); v < int32(g.N()); v++ {
		switch state[v] {
		case InSet, Skipped:
			continue
		case Undecided:
			return false
		case Out:
			ok := false
			for _, u := range g.Neighbors(v) {
				if state[u] == InSet {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// priorityBits is the per-node randomness of one Luby round.
const priorityBits = 32

// priority packs node v's drawn bits (high word) with its id (low word) as
// the tiebreak — exact for every int32 id, so adjacent equal draws can
// never produce two local maxima. Both lubyRound and the round engine's
// Fill must use exactly this expression for the two to stay bit-identical.
func priority(v int32, b *rng.Bits) uint64 {
	return b.Take(priorityBits)<<32 | uint64(uint32(v))
}

// lubyRound computes, without mutating, the set of nodes that join this
// round: live local maxima of the drawn priorities (ties by node id). r
// scopes the per-node parallel loops (nil = process default).
func lubyRound(r *par.Runner, g *graph.Graph, state []NodeState, bitsFor func(v int32) *rng.Bits) []bool {
	n := g.N()
	prio := make([]uint64, n)
	r.For(n, func(i int) {
		v := int32(i)
		if state[v] != Undecided {
			return
		}
		prio[v] = priority(v, bitsFor(v))
	})
	join := make([]bool, n)
	r.For(n, func(i int) {
		v := int32(i)
		if state[v] != Undecided {
			return
		}
		best := true
		for _, u := range g.Neighbors(v) {
			if state[u] == Undecided && prio[u] > prio[v] {
				best = false
				break
			}
		}
		join[v] = best
	})
	return join
}

// applyJoin commits a round's winners and returns how many nodes decided.
func applyJoin(g *graph.Graph, state []NodeState, join []bool) int {
	decided := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if join[v] && state[v] == Undecided {
			state[v] = InSet
			decided++
		}
	}
	return applyDominated(g, state, decided)
}

// applyJoinMask is applyJoin over a word-packed join mask: the
// derandomized commit path, reusing the join mask kept during seed
// selection by walking only its set bits.
func applyJoinMask(g *graph.Graph, state []NodeState, join bitset.Mask) int {
	decided := 0
	join.ForEach(func(i int) {
		if v := int32(i); state[v] == Undecided {
			state[v] = InSet
			decided++
		}
	})
	return applyDominated(g, state, decided)
}

// applyDominated moves every undecided neighbor of a fresh set member Out,
// completing a round's commit for both join representations.
func applyDominated(g *graph.Graph, state []NodeState, decided int) int {
	for v := int32(0); v < int32(g.N()); v++ {
		if state[v] != Undecided {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if state[u] == InSet {
				state[v] = Out
				decided++
				break
			}
		}
	}
	return decided
}

// Randomized runs Luby's algorithm with fresh randomness to completion.
func Randomized(g *graph.Graph, seed uint64, maxRounds int) Result {
	state := make([]NodeState, g.N())
	res := Result{State: state}
	for r := 0; r < maxRounds; r++ {
		undecided := countUndecided(state)
		if undecided == 0 {
			break
		}
		bitsFor := func(v int32) *rng.Bits {
			return rng.FreshBits(rng.At2(seed, uint64(v), uint64(r)), priorityBits)
		}
		join := lubyRound(nil, g, state, bitsFor)
		applyJoin(g, state, join)
		res.Rounds++
	}
	return res
}

// Options configures the derandomized run.
type Options struct {
	SeedBits  int // PRG seed length (default Θ(log Δ) capped at 10)
	MaxRounds int // safety cap (default 4·log₂ n + 8)
	// Bitwise switches seed selection from flat enumeration to the
	// bit-by-bit method of conditional expectations (same guarantee; the
	// branch means are subset sums of precomputed totals).
	Bitwise bool
	// Par scopes the round's parallel loops and seed walks to an explicit
	// worker budget; Derandomized derives a context-carrying copy from its
	// ctx argument. nil means the process default.
	Par *par.Runner
	// Trace observes one phase per Luby round. nil disables tracing.
	Trace trace.Tracer
	// Cache pools contribution tables and per-worker scratch across rounds
	// and runs. nil means per-round pooling only.
	Cache *Cache

	// selectSeed replaces selectRound when non-nil: the seam the
	// package's tests route the naive per-seed oracle through.
	selectSeed func(g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32, o Options) (condexp.Result, bitset.Mask, error)
}

// Derandomized runs Luby's algorithm under the framework: each round is
// one Lemma 10 invocation — chunk the PRG output by node (identity
// chunking suffices for MIS since the success property is radius-1),
// select the seed minimizing the number of still-undecided nodes, commit.
// Seed scoring runs on condexp.Select (engine.go).
// The result is deterministic, independent with certainty, and maximal
// with Skipped nodes (if any) excluded — mirroring that failed nodes defer
// without breaking WSP for the rest. A final sequential sweep decides any
// Skipped leftovers so the returned set is maximal outright.
//
// ctx cancels the run between rounds and inside every seed walk; on
// cancellation Derandomized returns ctx's error and a zero Result.
func Derandomized(ctx context.Context, g *graph.Graph, o Options) (Result, error) {
	n := g.N()
	if o.SeedBits == 0 {
		o.SeedBits = prg.SeedBitsForDelta(g.MaxDegree(), 10)
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 4*log2(n+2) + 8
	}
	o.Par = o.Par.WithContext(ctx)
	state := make([]NodeState, n)
	res := Result{State: state}
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	for r := 0; r < o.MaxRounds; r++ {
		if err := o.Par.Err(); err != nil {
			return Result{}, err
		}
		parts := undecidedNodes(state)
		if len(parts) == 0 {
			break
		}
		sp := trace.Begin(o.Trace, "mis", "luby-round", r, len(parts))
		gen := prg.NewKWise(4, o.SeedBits, n*priorityBits)
		selectSeed := selectRound
		if o.selectSeed != nil {
			selectSeed = o.selectSeed
		}
		sel, join, err := selectSeed(g, state, parts, gen, chunkOf, o)
		if err != nil {
			sp.End(0, 0, 0)
			return Result{}, err
		}
		decided := applyJoinMask(g, state, join)
		res.SeedReports = append(res.SeedReports, sel)
		res.Rounds++
		sp.End(sel.Evals, decided, 0)
	}
	// Any undecided leftovers (possible only if MaxRounds hit) are decided
	// greedily, preserving independence and reaching maximality.
	for v := int32(0); v < int32(n); v++ {
		if state[v] != Undecided {
			continue
		}
		free := true
		for _, u := range g.Neighbors(v) {
			if state[u] == InSet {
				free = false
				break
			}
		}
		if free {
			state[v] = InSet
		} else {
			state[v] = Out
		}
	}
	return res, nil
}

// selectRound is Derandomized's seed selection: the round engine on
// condexp.Select. It returns the chosen seed's join mask.
func selectRound(g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32, o Options) (condexp.Result, bitset.Mask, error) {
	e := newRoundEngine(o.Par, g, state, parts, gen, chunkOf)
	return condexp.Select(o.Par, o.Cache, e, len(parts), o.SeedBits, o.Bitwise)
}

// undecidedNodes lists the current round's participants in ascending node
// order.
func undecidedNodes(state []NodeState) []int32 {
	var out []int32
	for v, s := range state {
		if s == Undecided {
			out = append(out, int32(v))
		}
	}
	return out
}

func countUndecided(state []NodeState) int {
	n := 0
	for _, s := range state {
		if s == Undecided {
			n++
		}
	}
	return n
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
