package mis

import (
	"sync/atomic"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
	"parcolor/internal/rng"
)

// This file is the Luby round's problem for condexp.Select, the seed
// engine shared with deframe and lowdeg. Per seed, Fill
//
//   - re-expands only the undecided nodes' chunks into pooled per-worker
//     scratch (ChunkedScratch.ReseedChunks; chunking is the identity, so
//     the live chunks are the participants themselves), so per-seed
//     expansion cost tracks the shrinking live set instead of n,
//   - keeps the join set as a bitset.Mask over nodes (a decided neighbor's
//     bit is permanently zero, so the dominance scan reads one bit per
//     neighbor), and
//   - gathers each participant's still-undecided outcome into a dense
//     participant-index mask, so every chunk's contribution is a popcount
//     over its index range, 64 participants per word.
//
// Keep clones the best-seen join mask, so the flat winner's join is
// committed without being recomputed.

// Cache pools the derandomized Luby rounds' contribution tables and
// per-worker evaluation scratch across rounds and, owned by a long-lived
// Solver, across runs. A nil *Cache pools within one round only.
type Cache = condexp.Cache[misScratch]

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// engineIDs issues the unique ids misScratch.owner tags pooled scratch
// with (a counter, not a pointer, so pooled entries never retain a
// finished engine).
var engineIDs atomic.Uint64

// roundEngine is one Luby round's seed-selection problem.
type roundEngine struct {
	id    uint64 // unique per engine, never zero
	r     *par.Runner
	g     *graph.Graph
	state []NodeState
	parts []int32 // undecided nodes, ascending: also the live chunks
	gen   prg.PRG
	// chunkOf is the identity chunking, one PRG chunk per node.
	chunkOf []int32
}

// misScratch is one worker's reusable evaluation state. prio and the join
// mask are written for every undecided node on every fill, and read only
// at undecided nodes (a decided node's join bit stays zero from the
// owner-change reset), so they need no per-seed reset; undone is fully
// rewritten by each fill's gather. owner tags the round engine the join
// invariant currently holds for — by id, not pointer, so a pooled scratch
// never pins a finished engine (and its graph) in memory.
type misScratch struct {
	src    *prg.ChunkedScratch
	prio   []uint64
	join   bitset.Mask // over nodes
	undone bitset.Mask // over dense participant indices
	owner  uint64
}

func newRoundEngine(r *par.Runner, g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32) *roundEngine {
	return &roundEngine{id: engineIDs.Add(1), r: r, g: g, state: state, parts: parts, gen: gen, chunkOf: chunkOf}
}

// prepare retargets the worker's scratch to this round's shape and — when
// it last served a different round — clears the join mask, restoring the
// invariant that a decided node's join bit reads zero without any
// per-seed reset.
func (e *roundEngine) prepare(ss *misScratch) {
	var err error
	if ss.src == nil {
		ss.src, err = prg.NewChunkedScratch(e.gen, e.chunkOf, len(e.chunkOf), priorityBits)
	} else {
		err = ss.src.Retarget(e.gen, e.chunkOf, len(e.chunkOf), priorityBits)
	}
	if err != nil {
		// Generator too short is a construction bug; make it loud.
		panic(err)
	}
	n, np := len(e.state), len(e.parts)
	if cap(ss.prio) < n {
		ss.prio = make([]uint64, n)
	} else {
		ss.prio = ss.prio[:n]
	}
	grown := bitset.Words(n) > cap(ss.join)
	ss.join = ss.join.Grow(n)
	ss.undone = ss.undone.Grow(np)
	if ss.owner != e.id {
		if !grown { // a freshly made mask is already zero
			ss.join.Reset()
		}
		ss.owner = e.id
	}
}

// Fill simulates one Luby round for the seed, gathers each participant's
// still-undecided outcome into the dense undone mask, and reads off every
// chunk's contribution as a popcount over its index range.
func (e *roundEngine) Fill(ss *misScratch, seed uint64, bounds []int32, row []int64) {
	e.prepare(ss)
	src := ss.src.ReseedChunks(seed, e.parts)
	var cur rng.Bits
	for _, v := range e.parts {
		src.BitsForInto(v, &cur)
		ss.prio[v] = priority(v, &cur)
	}
	for _, v := range e.parts {
		best := true
		for _, u := range e.g.Neighbors(v) {
			if e.state[u] == Undecided && ss.prio[u] > ss.prio[v] {
				best = false
				break
			}
		}
		ss.join.SetTo(int(v), best)
	}
	undone := ss.undone
	undone.Gather(len(e.parts), func(i int) uint64 {
		if stillUndecided(e.g, ss.join, e.parts[i]) {
			return 1
		}
		return 0
	})
	for c := range row {
		row[c] = int64(undone.CountRange(int(bounds[c]), int(bounds[c+1])))
	}
}

// stillUndecided reports whether undecided node v stays undecided under
// the join mask: it neither joins nor has a joining neighbor. Decided
// neighbors' bits are permanently zero, so the scan needs no state check.
func stillUndecided(g *graph.Graph, join bitset.Mask, v int32) bool {
	if join.Test(int(v)) {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if join.Test(int(u)) {
			return false
		}
	}
	return true
}

// Keep clones the join mask out of the worker's scratch.
func (e *roundEngine) Keep(ss *misScratch, dst bitset.Mask) bitset.Mask {
	return append(dst[:0], ss.join...)
}

// Redo re-simulates the round for seed from a fresh full expansion.
func (e *roundEngine) Redo(seed uint64) bitset.Mask {
	src, err := prg.NewChunkedSource(e.gen, seed, e.chunkOf, len(e.chunkOf), priorityBits)
	if err != nil {
		panic(err)
	}
	join := bitset.New(len(e.state))
	join.FromBools(lubyRound(e.r, e.g, e.state, src.BitsFor))
	return join
}
