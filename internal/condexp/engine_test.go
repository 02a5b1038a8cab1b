package condexp

import (
	"context"
	"sync/atomic"
	"testing"

	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// synthProblem is a synthetic Select problem that records how the engine
// drives its hooks. Participant i's contribution to seed s is
// Hash3(salt, i, s) % 8, or, when totals is set, chunk 0 carries
// totals[s] and every other chunk 0. The winner is the seed itself.
type synthProblem struct {
	t      *testing.T
	salt   uint64
	totals []int64

	keeps []uint64 // seeds Keep saw, in call order (BestSeen serializes them)
	redos []uint64 // seeds Redo saw

	fills       atomic.Int64
	cancelAfter int64 // cancel after this many fills (0 = never)
	cancel      context.CancelFunc
	row0        atomic.Pointer[int64] // &row[0] of seed 0's row
}

type synthScratch struct {
	busy atomic.Bool
	// seed is written by Fill and read by Keep without synchronization,
	// so two workers sharing one scratch race under -race.
	seed uint64
}

func (p *synthProblem) Fill(ss *synthScratch, seed uint64, bounds []int32, row []int64) {
	if !ss.busy.CompareAndSwap(false, true) {
		p.t.Error("two fills hold the same scratch")
	}
	defer ss.busy.Store(false)
	if len(row) != len(bounds)-1 {
		p.t.Errorf("row has %d cells for %d chunks", len(row), len(bounds)-1)
	}
	ss.seed = seed
	if seed == 0 {
		p.row0.Store(&row[0])
	}
	for c := range row {
		row[c] = 0
		if p.totals != nil {
			if c == 0 {
				row[c] = p.totals[seed]
			}
			continue
		}
		for i := bounds[c]; i < bounds[c+1]; i++ {
			row[c] += int64(rng.Hash3(p.salt, uint64(i), seed) % 8)
		}
	}
	if n := p.fills.Add(1); n == p.cancelAfter {
		p.cancel()
	}
}

func (p *synthProblem) Keep(ss *synthScratch, dst uint64) uint64 {
	p.keeps = append(p.keeps, ss.seed)
	return ss.seed
}

func (p *synthProblem) Redo(seed uint64) uint64 {
	p.redos = append(p.redos, seed)
	return seed
}

// score is the reference objective: the sum of a full row.
func (p *synthProblem) score(nParts int) Scorer {
	return func(seed uint64) int64 {
		if p.totals != nil {
			return p.totals[seed]
		}
		var s int64
		for i := 0; i < nParts; i++ {
			s += int64(rng.Hash3(p.salt, uint64(i), seed) % 8)
		}
		return s
	}
}

func lexLess(sa int64, a uint64, sb int64, b uint64) bool {
	return sa < sb || (sa == sb && a < b)
}

// TestEngineFlatKeepsOnlyTakeovers checks that flat selection calls Keep
// exactly on best-seen takeovers — in a one-worker walk, the strict
// (score, seed) prefix minima in seed order; under any worker count, a
// strictly improving sequence ending at the winner — and never calls
// Redo.
func TestEngineFlatKeepsOnlyTakeovers(t *testing.T) {
	const nParts, seedBits = 300, 8
	for _, w := range []int{1, 2, 7} {
		p := &synthProblem{t: t, salt: 5}
		res, win, err := Select(par.NewRunner(w), nil, p, nParts, seedBits, false)
		if err != nil {
			t.Fatal(err)
		}
		score := p.score(nParts)
		if want := SelectSeed(nil, 1<<seedBits, score); !sameSelection(res, want) {
			t.Fatalf("w=%d: selection %+v, reference %+v", w, res, want)
		}
		if len(p.redos) != 0 {
			t.Fatalf("w=%d: flat selection called Redo for %v", w, p.redos)
		}
		if win != res.Seed || p.keeps[len(p.keeps)-1] != res.Seed {
			t.Fatalf("w=%d: winner %d, last keep %d, selected %d", w, win, p.keeps[len(p.keeps)-1], res.Seed)
		}
		for i := 1; i < len(p.keeps); i++ {
			a, b := p.keeps[i-1], p.keeps[i]
			if !lexLess(score(b), b, score(a), a) {
				t.Fatalf("w=%d: keep %d (seed %d) does not improve on seed %d", w, i, b, a)
			}
		}
		if w == 1 {
			var minima []uint64
			for s := uint64(0); s < 1<<seedBits; s++ {
				if len(minima) == 0 || score(s) < score(minima[len(minima)-1]) {
					minima = append(minima, s)
				}
			}
			if len(minima) != len(p.keeps) {
				t.Fatalf("keeps %v, prefix minima %v", p.keeps, minima)
			}
			for i := range minima {
				if minima[i] != p.keeps[i] {
					t.Fatalf("keeps %v, prefix minima %v", p.keeps, minima)
				}
			}
		}
	}
}

// TestEngineBitwiseRedo checks that a bitwise pick of a seed other than
// the argmin calls Redo exactly once, for that seed, and that a bitwise
// pick of the argmin calls it zero times.
func TestEngineBitwiseRedo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		totals []int64
		seed   uint64
		redos  int
	}{
		// Bit 0 prefers the {0, 2} branch (10 < 100), then the tie picks
		// seed 0, while seed 1 is the argmin.
		{"non-argmin", []int64{5, 0, 5, 100}, 0, 1},
		{"argmin", []int64{0, 5, 5, 5}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &synthProblem{t: t, totals: tc.totals}
			res, win, err := Select(par.NewRunner(2), nil, p, 40, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if want := SelectSeedBitwise(nil, 2, p.score(40)); !sameSelection(res, want) {
				t.Fatalf("selection %+v, reference %+v", res, want)
			}
			if res.Seed != tc.seed || win != tc.seed {
				t.Fatalf("picked seed %d winner %d, want %d", res.Seed, win, tc.seed)
			}
			if len(p.redos) != tc.redos {
				t.Fatalf("Redo calls %v, want %d", p.redos, tc.redos)
			}
			if tc.redos == 1 && p.redos[0] != tc.seed {
				t.Fatalf("Redo re-derived seed %d, want %d", p.redos[0], tc.seed)
			}
		})
	}
}

// TestEngineFillsNeverShareScratch walks a large seed space on many
// workers through one shared Cache: a scratch held by two fills at once
// trips the busy flag, and under -race the unsynchronized seed field.
func TestEngineFillsNeverShareScratch(t *testing.T) {
	c := new(Cache[synthScratch])
	for round := 0; round < 3; round++ {
		p := &synthProblem{t: t, salt: uint64(round)}
		if _, _, err := Select(par.NewRunner(7), c, p, 200, 10, round%2 == 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineCancelMidWalk cancels from inside a fill: Select returns the
// context's error, and the table goes back to the pool — the next
// selection on the same Cache fills the same storage.
func TestEngineCancelMidWalk(t *testing.T) {
	c := new(Cache[synthScratch])
	ctx, cancel := context.WithCancel(context.Background())
	p := &synthProblem{t: t, salt: 9, cancelAfter: 10, cancel: cancel}
	_, _, err := Select(par.NewRunner(1).WithContext(ctx), c, p, 100, 10, false)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := p.fills.Load(); n >= 1<<9 {
		t.Fatalf("cancellation not prompt: %d fills", n)
	}
	if raceEnabled {
		return // sync.Pool drops entries at random under the race detector
	}
	first := p.row0.Load()
	q := &synthProblem{t: t, salt: 9}
	if _, _, err := Select(par.NewRunner(1), c, q, 100, 10, false); err != nil {
		t.Fatal(err)
	}
	if q.row0.Load() != first {
		t.Fatal("the cancelled selection's table was not returned to the pool")
	}
}

// TestEngineAcrossWorkerCounts pins the selection and the winner to the
// worker count, for both strategies.
func TestEngineAcrossWorkerCounts(t *testing.T) {
	for _, bitwise := range []bool{false, true} {
		var ref Result
		for i, w := range []int{1, 2, 7} {
			p := &synthProblem{t: t, salt: 13}
			res, win, err := Select(par.NewRunner(w), nil, p, 500, 9, bitwise)
			if err != nil {
				t.Fatal(err)
			}
			if win != res.Seed {
				t.Fatalf("bitwise=%v w=%d: winner %d for seed %d", bitwise, w, win, res.Seed)
			}
			if i == 0 {
				ref = res
			} else if res != ref {
				t.Fatalf("bitwise=%v w=%d: %+v, w=1 gave %+v", bitwise, w, res, ref)
			}
		}
	}
}
