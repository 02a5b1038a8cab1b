package mpc

import (
	"fmt"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/prg"
)

// This file closes the Lemma 10 loop on real machines: one fully
// derandomized TryRandomColor round executed end-to-end on the cluster —
// palette exchange (the O(Δ^τ)-word input information of Definition 5),
// local per-seed simulation against hard-coded PRG chunks, the distributed
// method of conditional expectations, and the commit round. The whole
// protocol is O(1) MPC rounds for seed spaces of size O(s), matching the
// paper's accounting.

// RoundOptions selects one derandomized round's seed-selection protocol.
type RoundOptions struct {
	// NaiveScoring selects the scalar-batched DistributedSelectSeed oracle
	// instead of the row-sharded converge-cast (the default). Both choose
	// the identical seed; the scalar protocol spends at least as many
	// simulated rounds. Kept for differential tests and ablations (E16).
	NaiveScoring bool
}

// DerandomizedTRCRound runs one derandomized Algorithm 3 trial over the
// uncolored nodes. remaining[v] holds current palettes and is pruned in
// place; col gains the winners of the selected seed. chunkOf/numChunks
// distribute gen's output as in Lemma 10 (nodes within distance 4τ must
// hold distinct chunks for the simulation to be faithful; identity
// chunking always qualifies). Seed selection runs the row-sharded
// converge-cast (DistributedSelectSeedRows) unless opt.NaiveScoring forces
// the scalar-batched oracle. Returns the chosen seed, the number of
// colored nodes, and the MPC rounds used.
func DerandomizedTRCRound(c *Cluster, in *d1lc.Instance, col *d1lc.Coloring, remaining [][]int32, chunkOf []int32, numChunks int, gen prg.PRG, numSeeds int, opt RoundOptions) (seed uint64, colored int, rounds int, err error) {
	g := in.G
	n := g.N()
	if numSeeds < 1 || numSeeds > (1<<gen.SeedBits()) {
		return 0, 0, 0, fmt.Errorf("mpc: seed space %d incompatible with %s", numSeeds, gen.Name())
	}
	start := c.Metrics.Rounds
	bitsPer := gen.OutputBits() / numChunks

	// Round A: exchange remaining palettes with neighbor homes — the
	// Definition 5 input information (O(d(v)) words per node).
	err = c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= n {
			return
		}
		v := int32(m.ID)
		if col.Colors[v] != d1lc.Uncolored {
			return
		}
		msg := make([]int64, 0, len(remaining[v])+1)
		msg = append(msg, int64(v))
		for _, cc := range remaining[v] {
			msg = append(msg, int64(cc))
		}
		for _, u := range g.Neighbors(v) {
			out.Send(HomeOf(u), msg)
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	nbrPal := make([]map[int32][]int32, n)
	for v := int32(0); v < int32(n); v++ {
		m := c.Machines[HomeOf(v)]
		nbrPal[v] = map[int32][]int32{}
		for _, del := range m.Inbox {
			u := int32(del.Rec[0])
			pal := make([]int32, 0, len(del.Rec)-1)
			for _, w := range del.Rec[1:] {
				pal = append(pal, int32(w))
			}
			nbrPal[v][u] = pal
		}
		m.Inbox = nil
	}

	// Local per-seed simulation at each home: the candidate of any node w
	// is a pure function of (seed, chunkOf[w], remaining[w]); the home of
	// v holds its neighbors' palettes, so it evaluates SSP_v = "v wins"
	// locally — O(Δ^{8τ})-computation per Definition 5. The PRG expansions
	// are "hard-coded onto machines" (Lemma 9): precomputed once per seed.
	sources := make([]*prg.ChunkedSource, numSeeds)
	for s := 0; s < numSeeds; s++ {
		src, err := prg.NewChunkedSource(gen, uint64(s), chunkOf, numChunks, bitsPer)
		if err != nil {
			return 0, 0, 0, err
		}
		sources[s] = src
	}
	candidate := func(seedV uint64, w int32, pal []int32) int32 {
		if len(pal) == 0 {
			return d1lc.Uncolored
		}
		return pal[sources[seedV].BitsFor(w).TakeIntn(len(pal))]
	}
	failure := func(mid int, s uint64) int64 {
		if mid >= n {
			return 0
		}
		v := int32(mid)
		if col.Colors[v] != d1lc.Uncolored {
			return 0
		}
		cv := candidate(s, v, remaining[v])
		if cv == d1lc.Uncolored {
			return 1
		}
		for u, pal := range nbrPal[v] {
			if candidate(s, u, pal) == cv {
				return 1
			}
		}
		return 0
	}
	// winsBySeed[v], on the row path, is machine v's row of the
	// distributed win table: bit s says v's node wins under seed s —
	// numSeeds bits, within local space in the paper's 2^d ≤ s regime.
	// The row fill computes every per-seed outcome anyway, so packing the
	// win bit alongside the score lets the commit round reuse the mask
	// instead of re-deriving the winner set (a second full neighbor-
	// collision pass on the scalar oracle path).
	var winsBySeed []bitset.Mask
	wins := func(mid int, seed uint64) bool {
		if winsBySeed != nil {
			return winsBySeed[mid].Test(int(seed))
		}
		v := int32(mid)
		return col.Colors[v] == d1lc.Uncolored && failure(mid, seed) == 0
	}
	var best uint64
	if opt.NaiveScoring {
		best, _, _, err = DistributedSelectSeed(c, numSeeds, failure)
	} else {
		winsBySeed = make([]bitset.Mask, len(c.Machines))
		fill := func(mid int, row []int64) {
			w := bitset.New(numSeeds)
			winsBySeed[mid] = w
			uncolored := mid < n && col.Colors[mid] == d1lc.Uncolored
			for s := range row {
				f := failure(mid, uint64(s))
				row[s] = f
				if uncolored && f == 0 {
					w.Set(s)
				}
			}
		}
		var res condexp.Result
		res, _, err = DistributedSelectSeedRows(c, numSeeds, fill)
		best = res.Seed
	}
	if err != nil {
		return 0, 0, 0, err
	}

	// Commit round: winners color themselves and announce. Winner-ness
	// comes from the scoring pass's win mask on the row path (an
	// uncolored, non-failing node's candidate is never Uncolored, since
	// an empty draw counts as a failure). Colors are applied once the
	// round completes, then each uncolored home prunes the announced
	// colors from its palette.
	won := make([]int32, n)
	for v := range won {
		won[v] = d1lc.Uncolored
	}
	err = c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= n {
			return
		}
		v := int32(m.ID)
		if !wins(m.ID, best) {
			return
		}
		cv := candidate(best, v, remaining[v])
		if cv == d1lc.Uncolored {
			return
		}
		won[v] = cv
		for _, u := range g.Neighbors(v) {
			out.Send(HomeOf(u), []int64{int64(v), int64(cv)})
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for v := int32(0); v < int32(n); v++ {
		if won[v] != d1lc.Uncolored {
			col.Colors[v] = won[v]
			colored++
		}
	}
	for v := int32(0); v < int32(n); v++ {
		m := c.Machines[HomeOf(v)]
		if len(m.Inbox) > 0 && col.Colors[v] == d1lc.Uncolored {
			blocked := map[int32]bool{}
			for _, del := range m.Inbox {
				blocked[int32(del.Rec[1])] = true
			}
			kept := remaining[v][:0]
			for _, cc := range remaining[v] {
				if !blocked[cc] {
					kept = append(kept, cc)
				}
			}
			remaining[v] = kept
		}
		m.Inbox = nil
	}
	return best, colored, c.Metrics.Rounds - start, nil
}
