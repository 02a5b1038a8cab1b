package mpc

import (
	"fmt"

	"parcolor/internal/condexp"
	"parcolor/internal/kernel"
)

// This file implements the distributed method of conditional expectations
// exactly as Lemma 10 runs it on the cluster: every machine scores each
// candidate PRG seed against the nodes it hosts, the per-seed scores are
// combined up an aggregation tree, and the argmin seed is broadcast back.
// The in-process derandomizer (package deframe) computes the same argmin
// with shared-memory parallelism; the test suite checks the two agree,
// which is the simulation argument of Section 5.1 made executable.
//
// Two protocols coexist, mirroring the condexp package's two scoring
// architectures:
//
//   - DistributedSelectSeed (scalar batching) processes the seed space in
//     batches, paying one compute round plus a full tree ascent per batch:
//     B·L rounds for B batches over an L-level tree. It is the oracle the
//     row protocol is differentially tested against.
//   - DistributedSelectSeedRows (row-sharded converge-cast) is the
//     paper's shape: each machine fills its whole row of the distributed
//     [machines × seeds] contribution table in ONE compute round, then the
//     row vectors ascend the tree as pipelined batches — level l forwards
//     batch b in the round after its children sent it — so B batches
//     clear L levels in L+B−1 rounds, never more than the scalar
//     protocol's B·L. Machines ship chunk-rows (contiguous seed segments
//     of their subtree sums, folded with a unit-stride kernel add); the
//     root keeps its direct children's subtree rows apart and, once the
//     cast drains, assembles the seed-major contribution table from that
//     chunk-major staging by one blocked transpose, so the final
//     selection is pure condexp.ContribTable aggregation with the same
//     unit-stride per-seed row reduce the shared-memory path uses.

// SeedScorer evaluates, for one machine, the summed objective of the
// nodes that machine is responsible for under the given seed.
type SeedScorer func(machineID int, seed uint64) int64

// DistributedSelectSeed scores numSeeds seeds across the cluster and
// returns the minimum-total-score seed (smallest seed on ties) together
// with the number of MPC rounds consumed.
//
// Protocol: seeds are processed in batches of at most s/2 per round so
// that per-machine message volume stays within local space; each round,
// every machine sends its batch scores up a k-ary aggregation tree (one
// (seed, partial-sum) record per seed), and the root finalizes totals.
// Rounds: O(numSeeds/s · log_k M) — O(1) for seed spaces of size ≤ s,
// which is the paper's d = Θ(log Δ) regime (2^d ≤ poly(Δ) ≤ s).
func DistributedSelectSeed(c *Cluster, numSeeds int, score SeedScorer) (bestSeed uint64, bestScore int64, rounds int, err error) {
	if numSeeds <= 0 {
		return 0, 0, 0, fmt.Errorf("mpc: empty seed space")
	}
	nm := len(c.Machines)
	batch, k := c.batchGeometry()
	startRounds := c.Metrics.Rounds
	totals := make([]int64, numSeeds)

	for lo := 0; lo < numSeeds; lo += batch {
		hi := lo + batch
		if hi > numSeeds {
			hi = numSeeds
		}
		// Local scoring (one compute round, no messages).
		partial := make([][]int64, nm) // per machine, scores for [lo,hi)
		err := c.Round(func(m *Machine, out *Mailer) {
			p := make([]int64, hi-lo)
			for s := lo; s < hi; s++ {
				p[s-lo] = score(m.ID, uint64(s))
			}
			partial[m.ID] = p
		})
		if err != nil {
			return 0, 0, 0, err
		}
		// Aggregate up the k-ary heap tree: leaves to root, one level per
		// round, each machine sending its (partial) batch vector once.
		levels := levelsOf(nm, k)
		acc := partial
		for l := levels - 1; l >= 1; l-- {
			loP, hiP := levelRange(l, k)
			err := c.Round(func(m *Machine, out *Mailer) {
				p := m.ID
				if p < loP || p > hiP || p >= nm {
					return
				}
				rec := make([]int64, 0, hi-lo+1)
				rec = append(rec, int64(hi-lo))
				rec = append(rec, acc[p]...)
				out.Send((p-1)/k, rec)
			})
			if err != nil {
				return 0, 0, 0, err
			}
			for p := 0; p < nm; p++ {
				for _, d := range c.Machines[p].Inbox {
					cnt := int(d.Rec[0])
					for i := 0; i < cnt; i++ {
						acc[p][i] += d.Rec[1+i]
					}
				}
				c.Machines[p].Inbox = nil
			}
		}
		for s := lo; s < hi; s++ {
			totals[s] = acc[0][s-lo]
		}
	}
	bestSeed, bestScore = 0, totals[0]
	for s := 1; s < numSeeds; s++ {
		if totals[s] < bestScore {
			bestSeed, bestScore = uint64(s), totals[s]
		}
	}
	// Broadcast the winner (part of the protocol round budget).
	if err := c.Broadcast(0, []int64{int64(bestSeed), bestScore}); err != nil {
		return 0, 0, 0, err
	}
	return bestSeed, bestScore, c.Metrics.Rounds - startRounds, nil
}

// batchGeometry returns the seed-batch width and aggregation-tree fanout
// both selection protocols share: a parent receiving k child records of
// batch+1 words stays within local space, k·(batch+1) ≤ s with k ≥ 2.
// Keeping this in one place is what makes the protocols' round counts
// comparable (rows ≤ scalar is tested against exactly this geometry).
func (c *Cluster) batchGeometry() (batch, k int) {
	batch = c.cfg.LocalSpace/4 - 1
	if batch < 1 {
		batch = 1
	}
	k = c.cfg.LocalSpace / (batch + 1)
	if k < 2 {
		k = 2
	}
	return batch, k
}

// RowScorer fills one machine's full contribution row: row[s] must be set
// to the machine's summed local objective for seed s, for every s in
// [0, len(row)). It is called once per machine per selection, so
// implementations can amortize per-seed setup (PRG expansions, gathered
// palettes) across the whole row.
type RowScorer func(machineID int, row []int64)

// RowsFromScalar adapts a per-seed SeedScorer to the row protocol's
// whole-row fill. It forgoes RowScorer's per-row amortization — use it
// when the objective has no per-seed setup worth hoisting, and in
// differential tests against the scalar protocol.
func RowsFromScalar(score SeedScorer) RowScorer {
	return func(mid int, row []int64) {
		for s := range row {
			row[s] = score(mid, uint64(s))
		}
	}
}

// DistributedSelectSeedRows selects the minimum-total seed by the
// row-sharded converge-cast (see the file comment for the protocol) and
// returns the selection as a condexp.Result — seed, score, and the
// conditional-expectations certificate (SumScores/MeanUpper) that the
// scalar protocol never materialized — together with the MPC rounds
// consumed. The chosen seed and score are bit-identical to
// DistributedSelectSeed over the same objective.
func DistributedSelectSeedRows(c *Cluster, numSeeds int, fill RowScorer) (res condexp.Result, rounds int, err error) {
	if numSeeds <= 0 {
		return condexp.Result{}, 0, fmt.Errorf("mpc: empty seed space")
	}
	nm := len(c.Machines)
	batch, k := c.batchGeometry()
	startRounds := c.Metrics.Rounds

	// The root's table chunks: its own row plus one chunk per direct
	// child (heap positions 1..k), each holding that child's whole
	// subtree sum once the cast drains. chunkRows is the chunk-major
	// staging grid [numChunks × numSeeds] the blocked transpose below
	// turns into the seed-major Contrib.
	numChunks := 1 + min(k, nm-1)
	chunkRows := make([]int64, numChunks*numSeeds)

	// Compute round: every machine fills its local row of the distributed
	// contribution table — the root straight into staging chunk 0. In the
	// paper's regime the whole row fits in local space
	// (2^d ≤ poly(Δ) ≤ s); the simulation keeps rows in host-side
	// accumulators — like the scalar protocol's batch partials, though a
	// full row is numSeeds words where those are ≤ batch+1 — so for
	// numSeeds > s the resident table is NOT charged against
	// Metrics.MaxStored. The engine accounts every message either way;
	// the round/traffic comparison with the scalar oracle is what the
	// tests certify.
	acc := make([][]int64, nm)
	acc[0] = chunkRows[:numSeeds]
	err = c.Round(func(m *Machine, out *Mailer) {
		row := acc[m.ID]
		if row == nil {
			row = make([]int64, numSeeds)
			acc[m.ID] = row
		}
		fill(m.ID, row)
	})
	if err != nil {
		return condexp.Result{}, 0, err
	}

	nBatches := (numSeeds + batch - 1) / batch
	levels := levelsOf(nm, k)
	// Pipelined converge-cast: at tick t, machines on level l forward
	// batch b = t − (levels−1−l) — one round after their children sent b,
	// so the vector sums are complete when forwarded. Leaves start at
	// t = 0 with batch 0; the last batch reaches level 1 at the last tick.
	for t := 0; levels >= 2 && t <= (levels-2)+(nBatches-1); t++ {
		err := c.Round(func(m *Machine, out *Mailer) {
			l := levelOfPos(m.ID, k)
			if l < 1 {
				return
			}
			b := t - (levels - 1 - l)
			if b < 0 || b >= nBatches {
				return
			}
			lo := b * batch
			hi := lo + batch
			if hi > numSeeds {
				hi = numSeeds
			}
			rec := make([]int64, 0, hi-lo+1)
			rec = append(rec, int64(b))
			rec = append(rec, acc[m.ID][lo:hi]...)
			out.Send((m.ID-1)/k, rec)
		})
		if err != nil {
			return condexp.Result{}, 0, err
		}
		for p := 0; p < nm; p++ {
			for _, d := range c.Machines[p].Inbox {
				lo := int(d.Rec[0]) * batch
				seg := d.Rec[1:]
				if p == 0 {
					// Root: keep child d.From's subtree row as its own
					// staging chunk instead of folding it away, so the
					// per-machine attribution survives into the table.
					at := d.From*numSeeds + lo
					kernel.Add(chunkRows[at:at+len(seg)], seg)
				} else {
					// Interior machine: fold the child's segment into the
					// subtree sum, one unit-stride kernel add per record.
					kernel.Add(acc[p][lo:lo+len(seg)], seg)
				}
			}
			c.Machines[p].Inbox = nil
		}
	}
	// Root assembly and selection: transpose the chunk-major staging into
	// the seed-major table (each seed's chunks land contiguously), reduce
	// every row to its total, and select — pure ContribTable aggregation,
	// which also yields the certificate. Exact integer addition keeps the
	// totals bit-identical to the scalar oracle's fold order.
	contrib := make([]int64, numChunks*numSeeds)
	kernel.Transpose(contrib, chunkRows, numChunks, numSeeds)
	totals := make([]int64, numSeeds)
	for s := 0; s < numSeeds; s++ {
		totals[s] = kernel.Sum(contrib[s*numChunks : (s+1)*numChunks])
	}
	tbl := &condexp.ContribTable{NumSeeds: numSeeds, NumChunks: numChunks, Contrib: contrib, Totals: totals}
	res = tbl.SelectSeed()
	if err := c.Broadcast(0, []int64{int64(res.Seed), res.Score}); err != nil {
		return condexp.Result{}, 0, err
	}
	return res, c.Metrics.Rounds - startRounds, nil
}

// levelOfPos returns the level of position p in a k-ary heap (root = 0).
func levelOfPos(p, k int) int {
	l, lo, size := 0, 0, 1
	for p > lo+size-1 {
		lo += size
		size *= k
		l++
	}
	return l
}
