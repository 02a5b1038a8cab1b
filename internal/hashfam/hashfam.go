// Package hashfam implements the explicit bounded-independence hash
// families used throughout the derandomization pipeline:
//
//   - GF2Linear: h(x) = <a, x> ⊕ c over GF(2). Pairwise-independent over
//     one output bit, with the crucial property that conditional collision
//     probabilities given a seed-bit prefix are exactly 0, 1, or 1/2 — the
//     exactly-computable estimator behind the deterministic bit-by-bit
//     partitioning of Section 6 (Lemma 23).
//   - MultiplyShift: the classical 2-universal multiply-shift bin hash
//     (Dietzfelbinger et al.), used where a cheap universal family suffices.
//   - Poly: degree-(k−1) polynomial evaluation over the Mersenne prime
//     p = 2^61 − 1, the standard k-wise independent family; it is the
//     expansion core of the k-wise PRG in package prg.
package hashfam

import "math/bits"

// MersennePrime61 is 2^61 − 1, the field modulus of the Poly family.
const MersennePrime61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61−1 using 128-bit intermediate arithmetic and
// Mersenne folding.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo  ⇒ fold with 2^61 ≡ 1.
	res := (lo & MersennePrime61) + (lo >> 61) + (hi << 3 & MersennePrime61) + (hi >> 58)
	res = (res & MersennePrime61) + (res >> 61)
	if res >= MersennePrime61 {
		res -= MersennePrime61
	}
	return res
}

// addmod61 returns a+b mod 2^61−1 for a,b < 2^61−1.
func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// submod61 returns a−b mod 2^61−1 for a,b < 2^61−1.
func submod61(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + MersennePrime61 - b
}

// Poly is a k-wise independent hash function h(x) = Σ coef[i]·x^i over
// GF(2^61−1). A uniformly random Poly with k coefficients is k-wise
// independent on inputs < p.
type Poly struct {
	coef []uint64 // coef[i] < p
}

// NewPoly builds a polynomial hash with k coefficients derived from seed
// words (each reduced mod p). len(seed) determines the independence k.
func NewPoly(seed []uint64) Poly {
	coef := make([]uint64, len(seed))
	for i, s := range seed {
		coef[i] = s % MersennePrime61
	}
	return Poly{coef: coef}
}

// SetCoef reinitializes p in place from seed words (each reduced mod p),
// reusing the existing coefficient storage when capacity allows: the
// allocation-free counterpart of NewPoly for hot loops that redraw the
// polynomial once per PRG seed.
func (p *Poly) SetCoef(seed []uint64) {
	if cap(p.coef) < len(seed) {
		p.coef = make([]uint64, len(seed))
	}
	p.coef = p.coef[:len(seed)]
	for i, s := range seed {
		p.coef[i] = s % MersennePrime61
	}
}

// K returns the independence of the family this function was drawn from.
func (p Poly) K() int { return len(p.coef) }

// Eval evaluates the polynomial at x (reduced mod p) by Horner's rule.
func (p Poly) Eval(x uint64) uint64 {
	x %= MersennePrime61
	var acc uint64
	for i := len(p.coef) - 1; i >= 0; i-- {
		acc = addmod61(mulmod61(acc, x), p.coef[i])
	}
	return acc
}

// Bin maps x to a bin in [0, bins) with bias at most bins/p (negligible).
func (p Poly) Bin(x uint64, bins int) int {
	return int(p.Eval(x) % uint64(bins))
}

// PolyStepper evaluates a Poly at consecutive points x0, x0+1, … by
// finite differences: a degree-(k−1) polynomial's k-th forward difference
// vanishes, so after seeding the difference table with k Horner
// evaluations, every further point costs k−1 modular additions instead of
// k−1 modular multiplications. All arithmetic stays on canonical residues
// in [0, p), so Value() is bit-identical to Eval at every point — the
// property the PRG expansion paths rely on (the expanded bit is the
// residue's LSB).
//
// This is the consecutive-point engine under the k-wise PRG re-expansion:
// chunk c's bits are the polynomial at c·bitsPer+1, …, (c+1)·bitsPer, a
// contiguous run per chunk.
type PolyStepper struct {
	diffs []uint64
}

// Stepper starts consecutive evaluation at x0, (re)using buf for the
// difference table (len K() or it is reallocated). The returned stepper
// is positioned at x0: Value() == Eval(x0).
func (p Poly) Stepper(x0 uint64, buf []uint64) PolyStepper {
	k := len(p.coef)
	if cap(buf) < k {
		buf = make([]uint64, k)
	}
	buf = buf[:k]
	// buf[j] starts as f(x0+j), then in-place forward differencing turns
	// it into Δ^j f(x0).
	for j := 0; j < k; j++ {
		buf[j] = p.Eval(x0 + uint64(j))
	}
	for lvl := 1; lvl < k; lvl++ {
		for j := k - 1; j >= lvl; j-- {
			buf[j] = submod61(buf[j], buf[j-1])
		}
	}
	return PolyStepper{diffs: buf}
}

// CubicDiffs holds, for a Poly f of degree ≤ 3 (K() ≤ 4, coefficients
// c0..c3 zero-padded), the coefficients of f and of its forward
// differences as polynomials in x:
//
//	Δf  = (c1+c2+c3) + (2c2+3c3)x + 3c3x²
//	Δ²f = (2c2+6c3) + 6c3x
//	Δ³f = 6c3
//
// so the difference table at any start point costs six modular
// multiplications (At) instead of Stepper's k Horner evaluations and
// k(k−1)/2 subtractions. Derive it once per polynomial and seed many
// consecutive-point runs from it.
type CubicDiffs struct {
	f  [4]uint64
	d1 [3]uint64
	d2 [2]uint64
	d3 uint64
}

// CubicDiffs returns p's difference polynomials; ok is false when
// K() > 4 (use Stepper there).
func (p Poly) CubicDiffs() (c CubicDiffs, ok bool) {
	if len(p.coef) > 4 {
		return c, false
	}
	copy(c.f[:], p.coef)
	c1, c2, c3 := c.f[1], c.f[2], c.f[3]
	c3x3 := addmod61(addmod61(c3, c3), c3)
	c3x6 := addmod61(c3x3, c3x3)
	c.d1 = [3]uint64{addmod61(addmod61(c1, c2), c3), addmod61(addmod61(c2, c2), c3x3), c3x3}
	c.d2 = [2]uint64{addmod61(addmod61(c2, c2), c3x6), c3x6}
	c.d3 = c3x6
	return c, true
}

// At returns Δ^j f(x0) for j = 0..3: bit-identical to the difference
// table of p.Stepper(x0, nil), zero-padded to four entries (the
// differences past a lower-degree polynomial's table vanish).
func (c *CubicDiffs) At(x0 uint64) (d0, d1, d2, d3 uint64) {
	x := x0 % MersennePrime61
	d0 = addmod61(mulmod61(addmod61(mulmod61(addmod61(mulmod61(c.f[3], x), c.f[2]), x), c.f[1]), x), c.f[0])
	d1 = addmod61(mulmod61(addmod61(mulmod61(c.d1[2], x), c.d1[1]), x), c.d1[0])
	d2 = addmod61(mulmod61(c.d2[1], x), c.d2[0])
	return d0, d1, d2, c.d3
}

// Value returns the polynomial at the stepper's current point.
func (s PolyStepper) Value() uint64 {
	if len(s.diffs) == 0 {
		return 0
	}
	return s.diffs[0]
}

// Advance moves the stepper one point forward: each difference absorbs
// the next-higher one (ascending order reads the not-yet-updated
// neighbor, which is exactly Δ^{j+1} at the old point).
func (s PolyStepper) Advance() {
	for j := 0; j+1 < len(s.diffs); j++ {
		s.diffs[j] = addmod61(s.diffs[j], s.diffs[j+1])
	}
}

// Diffs returns the stepper's difference-table storage so callers can
// hand it back to Stepper and keep the evaluation loop allocation-free.
func (s PolyStepper) Diffs() []uint64 { return s.diffs }

// SeedWords reports how many uint64 seed words a k-wise Poly needs.
func SeedWords(k int) int { return k }

// MultiplyShift is the 2-universal bin hash
// h_a(x) = (a·x mod 2^64) >> (64−bitsOut), a odd.
type MultiplyShift struct {
	a       uint64
	bitsOut uint
}

// NewMultiplyShift builds a multiply-shift hash with 2^bitsOut bins from a
// seed word (forced odd).
func NewMultiplyShift(seed uint64, bitsOut uint) MultiplyShift {
	if bitsOut == 0 || bitsOut > 63 {
		panic("hashfam: bitsOut out of range")
	}
	return MultiplyShift{a: seed | 1, bitsOut: bitsOut}
}

// Bins returns the number of bins (2^bitsOut).
func (m MultiplyShift) Bins() int { return 1 << m.bitsOut }

// Bin maps x to a bin.
func (m MultiplyShift) Bin(x uint64) int {
	return int(m.a * x >> (64 - m.bitsOut))
}

// GF2Linear is the hash h(x) = parity(a AND x) XOR c over 64-bit keys:
// one output bit, pairwise independent for distinct keys. The seed is the
// 64 bits of a plus the bit c, consumed LSB-first as "seed bits" by the
// conditional-expectation machinery.
type GF2Linear struct {
	A uint64
	C uint64 // 0 or 1
}

// Bit returns h(x) ∈ {0,1}.
func (h GF2Linear) Bit(x uint64) uint64 {
	return uint64(bits.OnesCount64(h.A&x)&1) ^ (h.C & 1)
}

// CollisionProb returns the probability, over the unfixed suffix of the
// seed a (bits [fixedBits, 64) uniform, bits [0, fixedBits) taken from
// aPrefix), that h(x) == h(y). The c bit cancels in collisions, so it never
// matters. The result is exact: 0, 1, or 1/2 encoded as (num, den) with
// den ∈ {1, 2}.
//
// This exactness is what makes the bit-by-bit method of conditional
// expectations over GF2Linear splits computable (Section 6 / Lemma 23
// derandomization): the expected number of monochromatic edges conditioned
// on any seed prefix is a sum of these terms.
func CollisionProb(x, y uint64, aPrefix uint64, fixedBits uint) (num, den int) {
	d := x ^ y
	if d == 0 {
		return 1, 1
	}
	mask := ^uint64(0)
	if fixedBits < 64 {
		mask = (uint64(1) << fixedBits) - 1
	}
	if d&^mask != 0 {
		// Some differing key bit is still governed by an unfixed seed bit:
		// the parity of a&d is uniform.
		return 1, 2
	}
	// Fully determined by the prefix.
	if bits.OnesCount64(aPrefix&d)&1 == 0 {
		return 1, 1
	}
	return 0, 1
}
