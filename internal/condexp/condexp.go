// Package condexp implements the method of conditional expectations used
// by Lemma 10: PRG seed selection for every derandomized step, Luby round
// and trial round in the repository.
//
// Every entry point operates on an integer-valued objective ("score": e.g.
// the number of nodes failing the strong success property under a given
// seed) over an enumerable seed space, and returns a seed whose score is
// at most the mean over the space — the exact guarantee the paper's
// Lemma 10 derives from E[failures] ≤ nG/2 + nG·Δ^{−11τ}.
//
// Three layers, top to bottom:
//
//   - Select (engine.go) is the one seed-selection engine. A problem
//     supplies three hooks — Fill scores one seed into its table row on
//     pooled per-worker scratch, Keep clones the seed's winner while it
//     holds the best-seen slot, Redo re-derives a winner Keep never saw —
//     and Select owns the rest: chunk sizing (ScoreChunks/ChunkBounds),
//     the table build on the caller's par.Runner, flat or bitwise
//     selection, releasing the table to the problem's Cache, and handing
//     back the chosen seed's winner.
//
//   - The contribution table (table.go: BuildTable, ContribTable) mirrors
//     the paper's distributed implementation: the objective decomposes as
//     score(seed) = Σ_c contrib(c, seed) over machine-local chunks, each
//     (seed, chunk) contribution is computed exactly once into a flat
//     seed-major [numSeeds × numChunks] table by one parallel pass over
//     the seed space, per-seed totals come from a converge-cast that
//     reduces each seed's contiguous row, and both selection strategies
//     become pure table aggregation — the bitwise method's branch means
//     are subset sums of totals the build already paid for.
//
//   - The Scorer path (SelectSeed, SelectSeedBitwise, this file)
//     re-invokes an opaque score(seed) callback for every evaluation. It
//     assumes nothing about the objective and is the reference the table
//     and every problem's engine are differentially tested against:
//     SelectSeed enumerates all seeds once; SelectSeedBitwise fixes the
//     seed one bit at a time by comparing exact conditional branch means,
//     re-evaluating surviving seeds at every level (~2^(d+1) scorer calls
//     in total).
//
// Layout invariants of the seed-major table:
//
//   - Contrib[s*NumChunks+c] is chunk c's contribution to seed s: one
//     seed's row is one contiguous unit-stride block of the grid.
//   - Build hands each fill ITS OWN in-place row (a capacity-capped slice
//     of Contrib), so fills write their popcounts straight into final
//     cells: no per-worker staging row, no stride-NumSeeds scatter. A fill
//     must write every cell of the row it is handed — pooled grids are
//     not zeroed between builds.
//   - Totals[s] = kernel.Sum(row s), a blocked unit-stride reduce; exact
//     int64 addition makes every association order — the blocking, a
//     sequential scan, or the MPC aggregation tree — bit-identical, so
//     the table stays interchangeable with the MPC-faithful oracle.
//   - BuildChunkMajorOracle retains the retired chunk-major layout purely
//     as the differential-test reference; the suites pin every problem's
//     table to it cell-for-transposed-cell.
//
// Both paths return bit-identical Results (seed, score, sum, certificate)
// on the same objective; they differ only in Evals, the scorer-invocation
// count. Tests check the agreement and the guarantee for both.
//
// Who uses the engine. The three shared-memory problems run through
// Select, keep their per-seed participant state in internal/bitset masks
// (win/loser/join sets packed 64 participants per word), read chunk
// contributions off as popcounts over index ranges written directly into
// their in-place seed rows, and bottom out in internal/kernel's
// unit-stride loops (Sum for row totals, Add for tree combines, Transpose
// for the MPC root's assembly, MaskNeq32 under the bitset compaction).
// Each package's tests pin it to a naive per-seed oracle built on
// SelectSeed/SelectSeedBitwise:
//
//   - deframe: Lemma 10 over the HKNT schedule steps; win steps gather
//     the proposal's win mask into dense participant space and popcount
//     each chunk, SSP steps count failures per participant, both
//     re-expanding only the live PRG chunks.
//   - mis: Luby rounds; the join set is a node mask, each seed's
//     still-undecided outcomes gather into a dense mask, with chunk-sparse
//     PRG re-expansion of only the live nodes.
//   - lowdeg: trial rounds; winners are candidates &^ collision losers,
//     kept as (node, color) pairs.
//
// mpc.DistributedSelectSeedRows runs the same converge-cast as an MPC
// protocol — simulated machines fill distributed chunk-rows (packing a
// per-seed win bit alongside each score, reused at commit), the
// aggregation tree folds row segments with kernel.Add, and the root
// assembles the seed-major table by kernel.Transpose and selects by
// ContribTable aggregation; mpc.DistributedSelectSeed is the scalar
// protocol that experiment E16 compares it with. sparsify's hash-seed
// searches for LowSpacePartition do not use this package: they scan seeds
// in order and stop at the first with no Lemma 23 violations, and its
// GF(2) node splits fix their bits by exact conditional expectations
// inline.
package condexp

import (
	"parcolor/internal/par"
)

// Scorer evaluates the objective for one seed. Implementations must be
// safe for concurrent calls with distinct seeds and deterministic.
type Scorer func(seed uint64) int64

// Result reports the selected seed and the evidence for the guarantee.
type Result struct {
	Seed      uint64
	Score     int64
	SumScores int64 // over all seeds evaluated
	NumSeeds  int
	Evals     int // number of scorer invocations
}

// MeanUpper returns ⌈SumScores/NumSeeds⌉, an upper bound certificate:
// Score ≤ mean ≤ MeanUpper.
func (r Result) MeanUpper() int64 {
	if r.NumSeeds == 0 {
		return 0
	}
	return (r.SumScores + int64(r.NumSeeds) - 1) / int64(r.NumSeeds)
}

// SelectSeed enumerates seeds [0, numSeeds) in parallel on r's workers and
// returns the minimum-score seed (smallest seed on ties, independent of
// parallelism). r may be nil (process-default parallelism, no
// cancellation).
func SelectSeed(r *par.Runner, numSeeds int, score Scorer) Result {
	if numSeeds <= 0 {
		panic("condexp: empty seed space")
	}
	scores := make([]int64, numSeeds)
	r.For(numSeeds, func(i int) { scores[i] = score(uint64(i)) })
	min, arg := r.ReduceMin(numSeeds, func(i int) int64 { return scores[i] })
	var sum int64
	for _, s := range scores {
		sum += s
	}
	return Result{Seed: uint64(arg), Score: min, SumScores: sum, NumSeeds: numSeeds, Evals: numSeeds}
}

// SelectSeedBitwise fixes seed bits LSB-first. At each level it computes
// the exact conditional mean of both branches (by enumerating completions)
// and keeps the branch with the smaller mean, ties to bit 0. The final
// seed's score is at most the global mean, by induction on levels: the
// chosen branch's conditional mean never exceeds the current mean.
//
// The total number of scorer calls is Σ_{i=1..d} 2^{d-i+1} = 2^(d+1)−2:
// the same order as full enumeration, but structured exactly as the method
// of conditional expectations, which is what the framework's distributed
// implementation mirrors round by round. At the last level each branch has
// a single completion, so the chosen branch's sum already is the selected
// seed's score — no final re-evaluation is needed.
//
// r may be nil (process-default parallelism, no cancellation).
func SelectSeedBitwise(r *par.Runner, seedBits int, score Scorer) Result {
	if seedBits <= 0 || seedBits > 30 {
		panic("condexp: seedBits out of range")
	}
	d := seedBits
	var prefix uint64
	evals := 0
	var totalSum, chosen int64
	for level := 0; level < d; level++ {
		rem := d - level - 1 // bits still free after fixing this one
		n := 1 << rem
		branch := func(b uint64) int64 {
			base := prefix | b<<uint(level)
			return r.ReduceInt(n, func(i int) int64 {
				return score(base | uint64(i)<<uint(level+1))
			})
		}
		sum0, sum1 := branch(0), branch(1)
		evals += 2 * n
		if level == 0 {
			totalSum = sum0 + sum1
		}
		if sum1 < sum0 {
			prefix |= 1 << uint(level)
			chosen = sum1
		} else {
			chosen = sum0
		}
	}
	return Result{Seed: prefix, Score: chosen, SumScores: totalSum, NumSeeds: 1 << d, Evals: evals}
}

// Guarantee checks the conditional-expectations certificate: the selected
// score must be at most the ceiling of the mean.
func (r Result) Guarantee() bool {
	return r.Score <= r.MeanUpper()
}
