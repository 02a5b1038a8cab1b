package lowdeg

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// selectSeedNaive is the monolithic oracle for the trial engine: one full
// proposal plus win count per evaluated seed through
// condexp.SelectSeed/SelectSeedBitwise, and a final re-proposal of the
// winner. Tests install it through Options.selectSeed (see naiveOpts). A
// cancelled runner short-circuits the remaining evaluations and surfaces
// the context error.
func selectSeedNaive(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, []int32, error) {
	scorer := func(seed uint64) int64 {
		if o.Par.Err() != nil {
			return 0 // discarded with the selection
		}
		return -int64(countWins(st, parts, seed, round))
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
	prop := proposeRound(st, parts, sel.Seed, round)
	var wins []int32
	for _, v := range parts {
		if c := prop.Color[v]; c != d1lc.Uncolored {
			wins = append(wins, v, c)
		}
	}
	return sel, wins, nil
}

// countWins scores a seed by the number of nodes its proposal colors.
func countWins(st *hknt.State, parts []int32, seed, round uint64) int {
	prop := proposeRound(st, parts, seed, round)
	wins := 0
	for _, v := range parts {
		if prop.Color[v] != d1lc.Uncolored {
			wins++
		}
	}
	return wins
}

// naiveOpts returns o with the naive oracle in place of the engine.
func naiveOpts(o Options) Options {
	o.selectSeed = selectSeedNaive
	return o
}

// engineFill adapts the trial engine's Fill to a condexp.ChunkFiller over
// Select's chunk layout, with fresh scratch per seed, so tests can rebuild
// the engine's table through condexp.BuildTable and BuildChunkMajorOracle.
func engineFill(e *trialEngine) condexp.ChunkFiller {
	np := len(e.parts)
	bounds := condexp.ChunkBounds(np, condexp.ScoreChunks(np))
	return func(seed uint64, row []int64) { e.Fill(new(trialScratch), seed, bounds, row) }
}

// TestTrialEngineSeedMajorMatchesChunkMajorOracle pins the trial round
// engine's seed-major table bit-identical to the retained chunk-major
// oracle (condexp.BuildChunkMajorOracle over the engine's own fill):
// cells transpose one-for-one, totals agree in seed order, and both
// selection strategies match — across workers 1, 4 and the process
// default (run under -race in CI), over several rounds so the live set
// and palettes shrink between tables.
func TestTrialEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	const seedBits = 6
	in := d1lc.RandomPalettes(graph.Gnp(120, 0.06, 3), 2, 60, 7)
	st := hknt.NewState(in)
	numSeeds := 1 << seedBits

	for round := uint64(0); round < 3; round++ {
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		k := condexp.ScoreChunks(len(parts))
		oc, ot := condexp.BuildChunkMajorOracle(numSeeds, k, engineFill(newTrialEngine(st, parts, round)))

		for _, w := range []int{1, 4, 0} {
			fill := engineFill(newTrialEngine(st, parts, round))
			tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, k, fill)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, seedBits); err != nil {
				t.Fatalf("round=%d w=%d: %v", round, w, err)
			}
		}

		// Advance the state with the selected proposal so later rounds
		// exercise shrunken live sets and thinner palettes.
		sel, wins, err := selectRound(st, parts, round, Options{SeedBits: seedBits, Cache: NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Score == 0 {
			break
		}
		prop := hknt.NewProposal(in.G.N())
		for i := 0; i < len(wins); i += 2 {
			prop.SetWin(wins[i], wins[i+1])
		}
		st.Apply(prop)
	}
}
