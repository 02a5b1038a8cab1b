package deframe

import (
	"fmt"
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// derandomizeStepNaive is the monolithic oracle for the step engine: one
// full proposal plus full-graph score per evaluated seed through
// condexp.SelectSeed/SelectSeedBitwise, and a final re-proposal of the
// winner. Tests install it through Options.selectSeed (see naiveOpts). It
// reports the bits it expanded: every chunk on every evaluation. A
// cancelled runner short-circuits the remaining evaluations and surfaces
// the context error.
func derandomizeStepNaive(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, int64, error) {
	scorer := func(seed uint64) int64 {
		if o.Par.Err() != nil {
			return 0 // discarded: the selection below returns the ctx error
		}
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, numChunks, step.Bits)
		if err != nil {
			panic(fmt.Sprintf("deframe: %v", err))
		}
		prop := step.Propose(st, parts, src, nil)
		return defaultScore(st, step, parts, prop)
	}
	var res condexp.Result
	if o.Bitwise {
		res = condexp.SelectSeedBitwise(o.Par, o.SeedBits, scorer)
	} else {
		res = condexp.SelectSeed(o.Par, 1<<o.SeedBits, scorer)
	}
	if err := o.Par.Err(); err != nil {
		return condexp.Result{}, hknt.Proposal{}, 0, err
	}
	src, _ := prg.NewChunkedSource(gen, res.Seed, chunkOf, numChunks, step.Bits)
	expanded := int64(res.Evals) * int64(numChunks*step.Bits)
	return res, step.Propose(st, parts, src, nil), expanded, nil
}

// defaultScore is a step's whole objective under prop: the participants'
// Step.ScoreChunk contributions reduced over parallel chunks.
func defaultScore(st *hknt.State, step *hknt.Step, parts []int32, prop hknt.Proposal) int64 {
	return st.Par.ReduceChunked(len(parts), func(lo, hi int) int64 {
		return step.ScoreChunk(st, parts, prop, lo, hi)
	})
}

// naiveOpts returns o with the naive oracle in place of the engine.
func naiveOpts(o Options) Options {
	o.selectSeed = derandomizeStepNaive
	return o
}

// engineFill adapts the step engine's Fill to a condexp.ChunkFiller over
// Select's chunk layout, with fresh scratch per seed, so tests can rebuild
// the engine's table through condexp.BuildTable and BuildChunkMajorOracle.
func engineFill(e *stepEngine) condexp.ChunkFiller {
	np := len(e.parts)
	bounds := condexp.ChunkBounds(np, condexp.ScoreChunks(np))
	return func(seed uint64, row []int64) { e.Fill(new(seedScratch), seed, bounds, row) }
}

// TestStepEngineSeedMajorMatchesChunkMajorOracle pins the step engine's
// seed-major table bit-identical to the retained chunk-major oracle: the
// engine's own fill, scattered into the retired layout by
// condexp.BuildChunkMajorOracle, must transpose cell-for-cell onto the
// table the engine builds in place — with totals in seed order and both
// selection strategies equal — across workers 1, 4 and the process
// default (run under -race in CI), on both fill paths (the win-mask
// popcount path, SSP == nil, and the per-participant SSP path).
func TestStepEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(110, 5))
	n := in.G.N()
	ssp := func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
		return prop.Color[v] != d1lc.Uncolored
	}
	for _, tc := range []struct {
		name string
		ssp  func(*hknt.State, []int32, hknt.Proposal, int32) bool
	}{
		{"win-mask", nil}, // SSP == nil: popcount fill path
		{"ssp", ssp},      // per-participant ScoreChunk fill path
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := hknt.NewState(in)
			step := hknt.Step{
				Name:         "trc",
				Tau:          2,
				Bits:         hknt.TryRandomColorBits(n),
				Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
				Propose:      hknt.TryRandomColorPropose,
				SSP:          tc.ssp,
			}
			o := Options{SeedBits: 6}.withDefaults(in.G.MaxDegree())
			chunkOf, num, _ := chunkAssignment(nil, in.G, 4, 1_000_000)
			parts := step.Participants(st)
			gen := buildPRG(o, num, step.Bits)
			numSeeds := 1 << o.SeedBits

			k := condexp.ScoreChunks(len(parts))
			oc, ot := condexp.BuildChunkMajorOracle(numSeeds, k, engineFill(newStepEngine(st, &step, parts, gen, chunkOf, num)))

			for _, w := range []int{1, 4, 0} {
				fill := engineFill(newStepEngine(st, &step, parts, gen, chunkOf, num))
				tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, k, fill)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, o.SeedBits); err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
			}
		})
	}
}
