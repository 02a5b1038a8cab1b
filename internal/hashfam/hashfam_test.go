package hashfam

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"parcolor/internal/rng"
)

func TestMulmod61AgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := mulmod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddmod61(t *testing.T) {
	if got := addmod61(MersennePrime61-1, 1); got != 0 {
		t.Fatalf("wraparound got %d", got)
	}
	if got := addmod61(5, 7); got != 12 {
		t.Fatalf("got %d", got)
	}
}

func TestPolyEvalMatchesDirect(t *testing.T) {
	// h(x) = 3 + 5x + 7x² mod p, evaluated directly with big.Int.
	h := NewPoly([]uint64{3, 5, 7})
	p := new(big.Int).SetUint64(MersennePrime61)
	for _, x := range []uint64{0, 1, 2, 1000003, MersennePrime61 - 1} {
		xb := new(big.Int).SetUint64(x % MersennePrime61)
		want := new(big.Int).SetUint64(7)
		want.Mul(want, xb).Add(want, big.NewInt(5))
		want.Mul(want, xb).Add(want, big.NewInt(3))
		want.Mod(want, p)
		if got := h.Eval(x); got != want.Uint64() {
			t.Fatalf("Eval(%d)=%d want %v", x, got, want)
		}
	}
}

func TestPolyPairwiseIndependenceEmpirically(t *testing.T) {
	// Over many random degree-1 polynomials, P[h(x)=h(y) in the same bin]
	// should be ≈ 1/bins for x≠y.
	s := rng.New(77)
	const bins, trials = 16, 40000
	collide := 0
	for i := 0; i < trials; i++ {
		h := NewPoly([]uint64{s.Uint64(), s.Uint64()})
		if h.Bin(12345, bins) == h.Bin(98765, bins) {
			collide++
		}
	}
	got := float64(collide) / trials
	want := 1.0 / bins
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("collision rate %f want ≈%f", got, want)
	}
}

func TestPolyKAndSeedWords(t *testing.T) {
	if SeedWords(4) != 4 {
		t.Fatal("SeedWords")
	}
	if NewPoly(make([]uint64, 6)).K() != 6 {
		t.Fatal("K")
	}
}

func TestMultiplyShiftRange(t *testing.T) {
	m := NewMultiplyShift(0xDEADBEEF, 5)
	if m.Bins() != 32 {
		t.Fatal("Bins")
	}
	for x := uint64(0); x < 10000; x++ {
		b := m.Bin(x)
		if b < 0 || b >= 32 {
			t.Fatalf("bin %d out of range", b)
		}
	}
}

func TestMultiplyShiftSpread(t *testing.T) {
	m := NewMultiplyShift(rng.New(5).Uint64(), 4)
	counts := make([]int, 16)
	const total = 16000
	for x := uint64(0); x < total; x++ {
		counts[m.Bin(x*2654435761)]++
	}
	for b, c := range counts {
		if c < total/16/2 || c > total/16*2 {
			t.Fatalf("bin %d badly unbalanced: %d", b, c)
		}
	}
}

func TestMultiplyShiftPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiplyShift(1, 0)
}

func TestGF2LinearBitBalance(t *testing.T) {
	s := rng.New(31)
	const trials = 20000
	ones := 0
	for i := 0; i < trials; i++ {
		h := GF2Linear{A: s.Uint64(), C: s.Uint64() & 1}
		ones += int(h.Bit(0xF00DBABE))
	}
	got := float64(ones) / trials
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("bit bias %f", got)
	}
}

func TestCollisionProbExactness(t *testing.T) {
	// Exhaustively compare CollisionProb against enumeration over all
	// completions of the seed, for 8-bit keys (treating bits [8,64) of the
	// keys as zero so only 8 seed bits matter).
	keys := []uint64{0b00000000, 0b00000001, 0b10100101, 0b11111111, 0b01010101}
	for _, x := range keys {
		for _, y := range keys {
			for fixed := uint(0); fixed <= 8; fixed++ {
				for prefix := uint64(0); prefix < 1<<fixed; prefix++ {
					num, den := CollisionProb(x, y, prefix, fixed)
					// Enumerate the remaining 8-fixed seed bits.
					rem := uint(8) - fixed
					coll, tot := 0, 0
					for suffix := uint64(0); suffix < 1<<rem; suffix++ {
						a := prefix | suffix<<fixed
						h := GF2Linear{A: a}
						if h.Bit(x) == h.Bit(y) {
							coll++
						}
						tot++
					}
					if coll*den != num*tot {
						t.Fatalf("x=%b y=%b fixed=%d prefix=%b: got %d/%d, enum %d/%d",
							x, y, fixed, prefix, num, den, coll, tot)
					}
				}
			}
		}
	}
}

func TestCollisionProbHighBitsUnfixed(t *testing.T) {
	// Keys differing in a high bit with few fixed bits: must be 1/2.
	num, den := CollisionProb(1<<40, 0, 0, 8)
	if num != 1 || den != 2 {
		t.Fatalf("got %d/%d want 1/2", num, den)
	}
	// Fully fixed seed determines everything.
	num, den = CollisionProb(1<<40, 0, 1<<40, 64)
	if num != 0 || den != 1 {
		t.Fatalf("got %d/%d want 0/1", num, den)
	}
}

func BenchmarkPolyEval(b *testing.B) {
	h := NewPoly([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Eval(uint64(i))
	}
	_ = sink
}

func BenchmarkGF2Bit(b *testing.B) {
	h := GF2Linear{A: 0x123456789ABCDEF0, C: 1}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Bit(uint64(i))
	}
	_ = sink
}

func TestPolySetCoefMatchesNewPoly(t *testing.T) {
	var p Poly
	for trial := 0; trial < 20; trial++ {
		k := 1 + trial%6
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = uint64(trial*1000003+i) * 0x9E3779B97F4A7C15
		}
		p.SetCoef(seed)
		want := NewPoly(seed)
		if p.K() != want.K() {
			t.Fatalf("K mismatch: %d vs %d", p.K(), want.K())
		}
		for x := uint64(0); x < 50; x++ {
			if p.Eval(x) != want.Eval(x) {
				t.Fatalf("trial %d: Eval(%d) differs", trial, x)
			}
		}
	}
}

func TestPolySetCoefReusesStorage(t *testing.T) {
	var p Poly
	p.SetCoef([]uint64{1, 2, 3, 4, 5, 6})
	base := &p.coef[0]
	p.SetCoef([]uint64{7, 8, 9})
	if &p.coef[0] != base {
		t.Fatal("SetCoef reallocated despite sufficient capacity")
	}
	if p.K() != 3 {
		t.Fatalf("K=%d want 3", p.K())
	}
}

// TestPolyStepperMatchesEval pins the finite-difference consecutive-point
// evaluator bit-identical to Horner evaluation for every independence k
// the PRG layer uses, across runs starting at arbitrary points — the
// contract the k-wise chunk re-expansion relies on (the expanded bit is
// the residue's LSB, so the full residue must match exactly).
func TestPolyStepperMatchesEval(t *testing.T) {
	for k := 1; k <= 8; k++ {
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = 0x9E3779B97F4A7C15 * uint64(k*31+i+1)
		}
		p := NewPoly(seed)
		var buf []uint64
		for _, x0 := range []uint64{0, 1, 63, 64, 1000, 1 << 40} {
			st := p.Stepper(x0, buf)
			for j := uint64(0); j < 200; j++ {
				if got, want := st.Value(), p.Eval(x0+j); got != want {
					t.Fatalf("k=%d x0=%d: Value at +%d = %d, Eval = %d", k, x0, j, got, want)
				}
				st.Advance()
			}
			buf = st.Diffs()
		}
	}
}

// TestCubicDiffsMatchStepper pins CubicDiffs.At to the difference table
// Stepper builds by Horner evaluation and subtraction, for every k ≤ 4
// (lower k zero-padded), at start points that include the field's wrap.
func TestCubicDiffsMatchStepper(t *testing.T) {
	for k := 0; k <= 8; k++ {
		for trial := 0; trial < 20; trial++ {
			seed := make([]uint64, k)
			for i := range seed {
				seed[i] = 0x9E3779B97F4A7C15 * uint64(trial*97+k*31+i+1)
			}
			if trial == 1 {
				for i := range seed {
					seed[i] = MersennePrime61 - 1 // largest residues: every sum wraps
				}
			}
			p := NewPoly(seed)
			c, ok := p.CubicDiffs()
			if ok != (k <= 4) {
				t.Fatalf("k=%d: CubicDiffs ok=%v", k, ok)
			}
			if !ok {
				continue
			}
			for _, x0 := range []uint64{0, 1, 63, 64, 1000, 1 << 40, MersennePrime61 - 2, MersennePrime61 + 5} {
				var want [4]uint64
				copy(want[:], p.Stepper(x0, nil).Diffs())
				d0, d1, d2, d3 := c.At(x0)
				if got := [4]uint64{d0, d1, d2, d3}; got != want {
					t.Fatalf("k=%d trial=%d x0=%d: At = %v, Stepper = %v", k, trial, x0, got, want)
				}
			}
		}
	}
}
