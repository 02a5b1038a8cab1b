package lowdeg

import (
	"parcolor/internal/bitset"
	"parcolor/internal/d1lc"
	"parcolor/internal/hknt"
	"parcolor/internal/rng"
)

// This file is the trial round's problem for condexp.Select, the seed
// engine shared with deframe and mis. The engine
//
//   - compacts the round into dense participant-index space once — the
//     live-live edge list, remaining palettes, palette-size reciprocals
//     and the candidate mask all flattened over the participants — so
//     every per-seed structure scales with the shrinking live set instead
//     of n,
//   - fills each seed on pooled per-worker candidate buffers with the
//     per-seed loser state packed into a word-wide bitset.Mask — the
//     elimination pass sets loser bits, winners = candidates &^ losers by
//     one word-wide and-not, and each chunk's −wins is a popcount over the
//     chunk's index range (64 participants per word), and
//   - keeps the best-seen seed's winners as (node, color) pairs, so the
//     flat winner's proposal is committed without recomputation and a
//     zero-progress round never materializes one.

// trialEngine is one trial round's seed-selection problem.
type trialEngine struct {
	st    *hknt.State
	parts []int32
	round uint64

	// edges lists the round's live-live edges once each, as flat pairs of
	// participant indices. Only live nodes can hold a candidate — a
	// non-live neighbor's candidate is always Uncolored — so conflict
	// resolution is one symmetric elimination pass over these edges: half
	// the memory traffic of scanning both endpoints' adjacency, with the
	// same winner set (proposeRound's duplicate test is symmetric). One
	// O(Σdeg) build per round amortized across every seed.
	edges []int32
	// palOff/palFlat is the participants' remaining palettes flattened to
	// one contiguous array: participant i draws from
	// palFlat[palOff[i]:palOff[i+1]] (palettes are fixed for the round).
	palOff  []int32
	palFlat []int32
	// divs[i] is the precomputed reciprocal of participant i's palette
	// size, so the per-(seed, participant) candidate reduction needs no
	// hardware division.
	divs []rng.Divisor
	// candMask marks participants with a non-empty palette. Every such
	// participant draws a candidate on every seed, and only candidates can
	// collide, so a seed's winners are candMask &^ losers.
	candMask bitset.Mask
}

// trialScratch is one worker's reusable evaluation state: cand[i] is
// participant i's candidate this seed (rewritten in full by every fill),
// loser marks candidates eliminated by a neighbor collision (cleared per
// seed) and winners is candMask &^ loser.
type trialScratch struct {
	cand    []int32
	loser   bitset.Mask
	winners bitset.Mask
}

func newTrialEngine(st *hknt.State, parts []int32, round uint64) *trialEngine {
	e := &trialEngine{st: st, parts: parts, round: round}
	g := st.In.G
	np := len(parts)
	// indexOf inverts parts: participant index of each live node.
	indexOf := make([]int32, g.N())
	for i, v := range parts {
		indexOf[v] = int32(i)
	}
	e.palOff = make([]int32, np+1)
	for i, v := range parts {
		e.palOff[i+1] = e.palOff[i] + int32(len(st.Rem[v]))
	}
	e.palFlat = make([]int32, 0, e.palOff[np])
	e.divs = make([]rng.Divisor, np)
	for i, v := range parts {
		for _, u := range g.Neighbors(v) {
			if u > v && st.Live(u) {
				e.edges = append(e.edges, int32(i), indexOf[u])
			}
		}
		e.palFlat = append(e.palFlat, st.Rem[v]...)
		if d := len(st.Rem[v]); d > 0 {
			e.divs[i] = rng.NewDivisor(uint64(d))
		}
	}
	e.candMask = bitset.New(np)
	e.candMask.Fill(np, func(i int) bool { return e.palOff[i] < e.palOff[i+1] })
	return e
}

// Fill runs one trial for the seed and records each participant chunk's
// −wins. The candidate draw and conflict resolution match proposeRound
// exactly — an empty palette yields Uncolored, and only live neighbors can
// collide — so the row sums to minus the winners of proposeRound(seed).
func (e *trialEngine) Fill(ss *trialScratch, seed uint64, bounds []int32, row []int64) {
	np := len(e.parts)
	if cap(ss.cand) < np {
		ss.cand = make([]int32, np)
	} else {
		ss.cand = ss.cand[:np]
	}
	ss.loser = ss.loser.Grow(np)
	ss.winners = ss.winners.Grow(np)
	cand := ss.cand
	// Pass 1: draw candidates into dense participant-index space.
	for i, v := range e.parts {
		plo, phi := e.palOff[i], e.palOff[i+1]
		if plo == phi {
			cand[i] = d1lc.Uncolored
			continue
		}
		h := rng.Hash3(seed, uint64(v), e.round)
		cand[i] = e.palFlat[plo+int32(e.divs[i].Mod(h))]
	}
	// Pass 2: symmetric elimination over the live edge list — a collision
	// eliminates both endpoints, exactly proposeRound's duplicate rule.
	// Loser state is one bit per participant; setting an already-set bit
	// is idempotent, so no distinct-transition bookkeeping is needed.
	loser := ss.loser
	loser.Reset()
	edges := e.edges
	for k := 0; k < len(edges); k += 2 {
		a, b := edges[k], edges[k+1]
		if ca := cand[a]; ca != d1lc.Uncolored && ca == cand[b] {
			loser.Set(int(a))
			loser.Set(int(b))
		}
	}
	win := ss.winners
	win.Copy(e.candMask)
	win.AndNot(loser)
	for c := range row {
		row[c] = -int64(win.CountRange(int(bounds[c]), int(bounds[c+1])))
	}
}

// Keep collects the seed's winners as (node, color) pairs by a set-bit
// walk of the winner mask.
func (e *trialEngine) Keep(ss *trialScratch, dst []int32) []int32 {
	dst = dst[:0]
	ss.winners.ForEach(func(i int) {
		dst = append(dst, e.parts[i], ss.cand[i])
	})
	return dst
}

// Redo collects the winner pairs of proposeRound(seed).
func (e *trialEngine) Redo(seed uint64) []int32 {
	prop := proposeRound(e.st, e.parts, seed, e.round)
	var pairs []int32
	for _, v := range e.parts {
		if c := prop.Color[v]; c != d1lc.Uncolored {
			pairs = append(pairs, v, c)
		}
	}
	return pairs
}
