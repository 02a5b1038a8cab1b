package deframe

import (
	"fmt"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/prg"
)

// This file is the schedule step's problem for condexp.Select, the seed
// engine shared with mis and lowdeg. Per seed, Fill
//
//   - re-expands only the live PRG chunks into pooled per-worker scratch (a
//     reseedable ChunkedSource and an hknt.Scratch): the chunks of the
//     nodes whose bits Propose reads — the step's declared Readers (for
//     SynchColorTrial, the clique leaders that draw), or its participants
//     when Readers is nil — so per-seed expansion cost tracks the bits
//     actually read instead of the whole graph (StepReport.ExpandedBits
//     counts it), and
//   - proposes once and writes each participant chunk's contribution into
//     the seed's table row: win-counting steps (SSP == nil) gather the
//     proposal's win mask into dense participant-index space and count
//     each chunk by popcount, 64 participants per word; SSP steps count
//     failures per participant through Step.ScoreChunk.
//
// Keep clones the best-seen proposal (colors, win mask and marks), so the
// flat winner is committed without being recomputed.

// stepEngine is one step's seed-selection problem.
type stepEngine struct {
	st        *hknt.State
	step      *hknt.Step
	parts     []int32
	gen       prg.PRG
	chunkOf   []int32
	numChunks int

	// liveChunks lists the distinct PRG chunks the step's Propose reads:
	// those of step.Readers, or of the participants when Readers is nil.
	// nil when every chunk is live (sparse re-expansion would save
	// nothing).
	liveChunks []int32
	// seedBits is the PRG output expanded per seed: live chunks × Bits.
	seedBits int
}

// seedScratch is one worker's reusable evaluation state. partsWin is the
// dense participant-index win mask the popcount scoring path gathers into;
// prop is the last Fill's proposal, aliasing sc.
type seedScratch struct {
	src      *prg.ChunkedScratch
	sc       *hknt.Scratch
	partsWin bitset.Mask
	prop     hknt.Proposal
}

func newStepEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) *stepEngine {
	e := &stepEngine{
		st: st, step: step, parts: parts,
		gen: gen, chunkOf: chunkOf, numChunks: numChunks,
	}
	readers := parts
	if step.Readers != nil {
		readers = step.Readers(st)
	}
	seen := make([]bool, numChunks)
	live := make([]int32, 0, len(readers))
	for _, v := range readers {
		if c := chunkOf[v]; !seen[c] {
			seen[c] = true
			live = append(live, c)
		}
	}
	e.seedBits = numChunks * step.Bits
	if len(live) < numChunks {
		e.liveChunks = live
		e.seedBits = len(live) * step.Bits
	}
	return e
}

// Fill retargets the worker's scratch to this step's generator, chunk
// layout and participant count (a few comparisons when it already
// matches, the steady state within one walk), re-expands the seed's live
// chunks — bit-identical to a full expansion on every chunk Propose reads
// — proposes, and scores each chunk into row.
func (e *stepEngine) Fill(ss *seedScratch, seed uint64, bounds []int32, row []int64) {
	if ss.sc == nil {
		ss.sc = hknt.NewScratch()
	}
	var err error
	if ss.src == nil {
		ss.src, err = prg.NewChunkedScratch(e.gen, e.chunkOf, e.numChunks, e.step.Bits)
	} else {
		err = ss.src.Retarget(e.gen, e.chunkOf, e.numChunks, e.step.Bits)
	}
	if err != nil {
		// Generator too short is a construction bug; make it loud.
		panic(fmt.Sprintf("deframe: %v", err))
	}
	ss.partsWin = ss.partsWin.Grow(len(e.parts))

	var src *prg.ChunkedSource
	if e.liveChunks != nil {
		src = ss.src.ReseedChunks(seed, e.liveChunks)
	} else {
		src = ss.src.Reseed(seed)
	}
	prop := e.step.Propose(e.st, e.parts, src, ss.sc)
	ss.prop = prop
	if e.step.SSP == nil {
		pw := ss.partsWin
		pw.Gather(len(e.parts), func(i int) uint64 { return prop.Win.Bit(int(e.parts[i])) })
		for c := range row {
			row[c] = -int64(pw.CountRange(int(bounds[c]), int(bounds[c+1])))
		}
	} else {
		for c := range row {
			row[c] = e.step.ScoreChunk(e.st, e.parts, prop, int(bounds[c]), int(bounds[c+1]))
		}
	}
}

// Keep clones the proposal out of the worker's scratch.
func (e *stepEngine) Keep(ss *seedScratch, dst hknt.Proposal) hknt.Proposal {
	return hknt.CloneProposal(ss.prop, dst)
}

// Redo re-proposes seed from a fresh full expansion.
func (e *stepEngine) Redo(seed uint64) hknt.Proposal {
	src, err := prg.NewChunkedSource(e.gen, seed, e.chunkOf, e.numChunks, e.step.Bits)
	if err != nil {
		panic(fmt.Sprintf("deframe: %v", err))
	}
	return e.step.Propose(e.st, e.parts, src, nil)
}

// selectStep is DerandomizeStep's seed selection: the step engine on
// condexp.Select. It also returns the chunk bits the walk expanded.
func selectStep(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, int64, error) {
	e := newStepEngine(st, step, parts, gen, chunkOf, numChunks)
	res, prop, err := condexp.Select(o.Par, &o.Cache.seeds, e, len(parts), o.SeedBits, o.Bitwise)
	return res, prop, int64(res.Evals) * int64(e.seedBits), err
}
