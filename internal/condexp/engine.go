package condexp

import (
	"sync"

	"parcolor/internal/kernel"
	"parcolor/internal/par"
)

// This file is the one seed-selection engine: Lemma 10's method of
// conditional expectations as every derandomized problem in the
// repository runs it. Select sizes the machine-local chunking from the
// participant count, builds the seed-major contribution table on the
// caller's runner (one Fill per seed, pooled per-worker scratch), selects
// flat or bitwise, releases the table, and returns the chosen seed's
// winner — cloned during the walk by Keep when the seed took the
// best-seen slot, re-derived once by Redo otherwise. A problem supplies
// only those three hooks.

// Problem is one seed selection's problem-specific part. Select calls
// each hook at most once per seed, never per participant. S is the
// per-worker scratch the Cache pools; W is the materialized winner (a
// proposal, a join mask, winner pairs).
type Problem[S, W any] interface {
	// Fill prepares the pooled scratch ss for this problem (a fresh one
	// is the zero S) and evaluates seed, writing into row[c] chunk c's
	// contribution for participants [bounds[c], bounds[c+1]). It must
	// write every cell of row and leave the seed's winner readable in ss
	// for Keep. Fills of distinct seeds run concurrently, each on its own
	// scratch; a Fill must be deterministic in seed.
	Fill(ss *S, seed uint64, bounds []int32, row []int64)
	// Keep clones the winner the last Fill left in ss into dst's storage
	// and returns it. It runs while BestSeen holds the seed's slot, so
	// only on a takeover.
	Keep(ss *S, dst W) W
	// Redo re-derives the winner of a seed Keep never saw: bitwise
	// selection may pick a seed other than the argmin.
	Redo(seed uint64) W
}

// Cache recycles one problem's selection storage across selections —
// and, held by a long-lived Solver, across whole solves: the
// contribution tables and the per-worker scratch. Safe for concurrent
// selections. A nil *Cache is valid and means "pool within one
// selection only".
type Cache[S any] struct {
	tables  TableCache
	scratch sync.Pool // of *S
}

func (c *Cache[S]) getScratch() *S {
	if ss, _ := c.scratch.Get().(*S); ss != nil {
		return ss
	}
	return new(S)
}

// Select runs one seed selection over the seed space [0, 2^seedBits) for
// a problem with nParts participants: flat enumeration, or the bit-by-bit
// method of conditional expectations when bitwise is set. It returns the
// selection's certificate and the chosen seed's winner. The table is
// built on r's workers; a cancelled r stops the walk between seeds and
// Select returns the context's error.
func Select[S, W any](r *par.Runner, c *Cache[S], p Problem[S, W], nParts, seedBits int, bitwise bool) (Result, W, error) {
	if c == nil {
		c = new(Cache[S])
	}
	k := ScoreChunks(nParts)
	s := &selection[S, W]{c: c, p: p, bounds: ChunkBounds(nParts, k)}
	tbl, err := c.tables.build(r, 1<<seedBits, k, s)
	if err != nil {
		var none W
		return Result{}, none, err
	}
	var res Result
	if bitwise {
		res = tbl.SelectSeedBitwise(seedBits)
	} else {
		res = tbl.SelectSeed()
	}
	c.tables.Release(tbl)
	if !s.best.Matches(res.Seed) {
		s.win = p.Redo(res.Seed)
	}
	return res, s.win, nil
}

// selection is one Select call's walk state; it is the table build's
// row filler.
type selection[S, W any] struct {
	c      *Cache[S]
	p      Problem[S, W]
	bounds []int32
	best   BestSeen
	win    W
}

func (s *selection[S, W]) fillRow(seed uint64, row []int64) {
	ss := s.c.getScratch()
	s.p.Fill(ss, seed, s.bounds, row)
	s.best.Offer(seed, kernel.Sum(row), func() { s.win = s.p.Keep(ss, s.win) })
	s.c.scratch.Put(ss)
}

// BestSeen tracks the (score, seed)-lexicographic minimum offered during a
// table build: exactly the seed flat selection returns, because the
// comparison mirrors SelectSeed/par.ReduceMin's smallest-seed tie-break.
// Select uses it to keep the flat winner while walking the seed space, so
// committing it needs no recomputation. Safe for concurrent Offer calls;
// the ordering makes the winner deterministic under any evaluation order.
type BestSeen struct {
	mu    sync.Mutex
	have  bool
	seed  uint64
	score int64
}

// Offer proposes (seed, score). If it takes the minimum slot, keep runs
// while the lock pins the slot — the caller materializes the winner there
// (cloning out of per-worker scratch). keep runs O(log numSeeds) expected
// times over a random-order walk.
func (b *BestSeen) Offer(seed uint64, score int64, keep func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.have && (b.score < score || (b.score == score && b.seed < seed)) {
		return
	}
	b.have, b.seed, b.score = true, seed, score
	keep()
}

// Matches reports whether seed holds the minimum slot — true for the flat
// winner by construction; bitwise selection may pick another seed.
func (b *BestSeen) Matches(seed uint64) bool { return b.have && b.seed == seed }
