package mis

import (
	"testing"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// selectSeedNaive is the monolithic oracle for the round engine: one full
// PRG expansion plus full-graph Luby simulation per evaluated seed through
// condexp.SelectSeed/SelectSeedBitwise, and a final re-simulation of the
// winner. Tests install it through Options.selectSeed (see naiveOpts). A
// cancelled runner short-circuits the remaining evaluations and surfaces
// the context error.
func selectSeedNaive(g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32, o Options) (condexp.Result, bitset.Mask, error) {
	n := g.N()
	round := func(seed uint64) []bool {
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, n, priorityBits)
		if err != nil {
			panic(err)
		}
		return lubyRound(o.Par, g, state, src.BitsFor)
	}
	scorer := func(seed uint64) int64 {
		if o.Par.Err() != nil {
			return 0 // discarded with the selection
		}
		// Pessimistic estimator: nodes still undecided afterwards.
		return int64(len(parts)) - int64(simulateDecided(o.Par, g, state, round(seed)))
	}
	var sel condexp.Result
	if o.Bitwise {
		sel = condexp.SelectSeedBitwise(o.Par, o.SeedBits, scorer)
	} else {
		sel = condexp.SelectSeed(o.Par, 1<<o.SeedBits, scorer)
	}
	if err := o.Par.Err(); err != nil {
		return condexp.Result{}, nil, err
	}
	join := bitset.New(n)
	join.FromBools(round(sel.Seed))
	return sel, join, nil
}

// simulateDecided counts how many currently-undecided nodes would become
// decided if join were applied, without mutating state.
func simulateDecided(r *par.Runner, g *graph.Graph, state []NodeState, join []bool) int {
	return int(r.ReduceInt(g.N(), func(i int) int64 {
		v := int32(i)
		if state[v] != Undecided {
			return 0
		}
		if join[v] {
			return 1
		}
		for _, u := range g.Neighbors(v) {
			if join[u] {
				return 1
			}
		}
		return 0
	}))
}

// naiveOpts returns o with the naive oracle in place of the engine.
func naiveOpts(o Options) Options {
	o.selectSeed = selectSeedNaive
	return o
}

// engineFill adapts the round engine's Fill to a condexp.ChunkFiller over
// Select's chunk layout, with fresh scratch per seed, so tests can rebuild
// the engine's table through condexp.BuildTable and BuildChunkMajorOracle.
func engineFill(e *roundEngine) condexp.ChunkFiller {
	np := len(e.parts)
	bounds := condexp.ChunkBounds(np, condexp.ScoreChunks(np))
	return func(seed uint64, row []int64) { e.Fill(new(misScratch), seed, bounds, row) }
}

// TestRoundEngineSeedMajorMatchesChunkMajorOracle pins the Luby round
// engine's seed-major table bit-identical to the retained chunk-major
// oracle (condexp.BuildChunkMajorOracle over the engine's own fill):
// cells transpose one-for-one, totals agree in seed order, and both
// selection strategies match — across workers 1, 4 and the process
// default (run under -race in CI), on a fresh round and on a
// partially-decided state.
func TestRoundEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	const seedBits = 6
	g := graph.Mixed(130, 5)
	n := g.N()
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}

	fresh := make([]NodeState, n)
	partial := make([]NodeState, n)
	for v := 0; v < n; v += 7 {
		if partial[v] != Undecided {
			continue
		}
		partial[v] = InSet
		for _, u := range g.Neighbors(int32(v)) {
			partial[u] = Out
		}
	}
	for _, tc := range []struct {
		name  string
		state []NodeState
	}{{"fresh", fresh}, {"partial", partial}} {
		t.Run(tc.name, func(t *testing.T) {
			parts := undecidedNodes(tc.state)
			if len(parts) == 0 {
				t.Fatal("degenerate case: no undecided nodes")
			}
			gen := prg.NewKWise(4, seedBits, n*priorityBits)
			numSeeds := 1 << seedBits

			k := condexp.ScoreChunks(len(parts))
			oc, ot := condexp.BuildChunkMajorOracle(numSeeds, k, engineFill(newRoundEngine(nil, g, tc.state, parts, gen, chunkOf)))

			for _, w := range []int{1, 4, 0} {
				fill := engineFill(newRoundEngine(nil, g, tc.state, parts, gen, chunkOf))
				tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, k, fill)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, seedBits); err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
			}
		})
	}
}
