// Package linial implements Linial's deterministic O(Δ²)-coloring in
// O(log* n) rounds [Lin92], the subroutine Theorem 12 uses to color the
// power graph G^{4τ} so that PRG output chunks can be distributed to nodes
// with all nodes within distance 4τ receiving distinct chunks (Lemma 10).
//
// The color-reduction round is the classical polynomial set-system: a
// color c < q^{k+1} is the degree-k polynomial p_c over GF(q) whose
// coefficients are c's base-q digits, and its set is
// S_c = {(x, p_c(x)) : x ∈ GF(q)} ⊆ [q²]. Distinct colors share at most k
// elements, so with q > kΔ every node finds an element of its own set
// outside all neighbors' sets; picking the smallest such element is a
// proper coloring with q² colors. Iterating shrinks n colors to O(Δ²·log²Δ)
// within log* n rounds.
package linial

import (
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// Result carries the coloring and its round accounting.
type Result struct {
	Colors []int32
	// NumColors is an upper bound on the palette used (max color + 1).
	NumColors int
	Rounds    int
}

// Color computes a deterministic O(Δ²·polylog Δ)-coloring of g on the
// process-default worker bound.
func Color(g *graph.Graph) Result { return ColorPar(nil, g) }

// ColorPar is Color with the per-round node fan-out scoped to r's workers
// (nil = process default), so the power-graph coloring inside a
// budget-scoped solve honors the solve's worker bound.
func ColorPar(r *par.Runner, g *graph.Graph) Result {
	n := g.N()
	colors := make([]int32, n)
	for v := range colors {
		colors[v] = int32(v)
	}
	numColors := n
	if numColors == 0 {
		return Result{Colors: colors, NumColors: 0}
	}
	delta := g.MaxDegree()
	rounds := 0
	for {
		next, nextCount, ok := reduceOnce(r, g, colors, numColors, delta)
		if !ok {
			break
		}
		colors, numColors = next, nextCount
		rounds++
		if rounds > 64 { // log* safety net; unreachable in practice
			break
		}
	}
	return Result{Colors: colors, NumColors: numColors, Rounds: rounds}
}

// AtFixedPoint is the k=1 no-progress test of a reduction round: with
// q = nextPrime(Δ+1), the degree-1 set system maps colors into q² points,
// so q² ≥ numColors means a round cannot shrink the palette and stops.
// ColorPar starting from n colors then returns the identity coloring. The
// test is monotone in delta, so it holds for any graph whose maximum
// degree is at least delta — which lets a caller certify the fixed point
// from a lower bound on Δ without building the graph.
func AtFixedPoint(delta, numColors int) bool {
	q := nextPrime(delta + 1)
	return q*q >= numColors
}

// reduceOnce performs one Linial reduction round; ok is false when no
// further reduction is possible (q² ≥ current color count).
func reduceOnce(r *par.Runner, g *graph.Graph, colors []int32, numColors, delta int) (next []int32, nextCount int, ok bool) {
	if AtFixedPoint(delta, numColors) {
		return nil, 0, false
	}
	// k=1 cannot encode every color (q² < numColors): choose the smallest
	// degree k ≥ 2 and field size q admitting progress.
	for k := 2; k <= 8; k++ {
		q := nextPrime(k*delta + 1)
		// Need q^{k+1} ≥ numColors so every color is encodable, and
		// q² < numColors for progress.
		if !powAtLeast(q, k+1, numColors) {
			continue
		}
		if q*q >= numColors {
			return nil, 0, false // already at the fixed point
		}
		return applyRound(r, g, colors, q, k), q * q, true
	}
	return nil, 0, false
}

// applyRound maps every node's color through the polynomial set system.
func applyRound(r *par.Runner, g *graph.Graph, colors []int32, q, k int) []int32 {
	n := g.N()
	next := make([]int32, n)
	r.ForChunked(n, func(lo, hi int) {
		coefV := make([]int64, k+1)
		coefU := make([]int64, k+1)
		forbidden := make(map[int64]bool, q*2)
		for i := lo; i < hi; i++ {
			v := int32(i)
			digits(int64(colors[v]), q, coefV)
			clearMap(forbidden)
			for _, u := range g.Neighbors(v) {
				if colors[u] == colors[v] {
					// Improper input would break the guarantee; same-color
					// neighbors cannot occur for proper inputs.
					continue
				}
				digits(int64(colors[u]), q, coefU)
				for x := 0; x < q; x++ {
					forbidden[point(x, evalPoly(coefU, x, q), q)] = true
				}
			}
			picked := int64(-1)
			for x := 0; x < q; x++ {
				pt := point(x, evalPoly(coefV, x, q), q)
				if !forbidden[pt] {
					picked = pt
					break
				}
			}
			if picked < 0 {
				// Cannot happen when q > kΔ; keep a defensive fallback
				// that preserves properness by reusing the scaled old
				// color (distinct old colors stay distinct).
				picked = point(0, int(int64(colors[v])%int64(q)), q)
			}
			next[v] = int32(picked)
		}
	})
	return next
}

func clearMap(m map[int64]bool) {
	for k := range m {
		delete(m, k)
	}
}

// digits writes c's base-q digits into coef (little endian).
func digits(c int64, q int, coef []int64) {
	for i := range coef {
		coef[i] = c % int64(q)
		c /= int64(q)
	}
}

// evalPoly evaluates the polynomial with the given coefficients at x mod q.
func evalPoly(coef []int64, x, q int) int {
	acc := int64(0)
	for i := len(coef) - 1; i >= 0; i-- {
		acc = (acc*int64(x) + coef[i]) % int64(q)
	}
	return int(acc)
}

// point encodes (x, y) ∈ [q]×[q] as a single value in [q²].
func point(x, y, q int) int64 { return int64(x)*int64(q) + int64(y) }

// powAtLeast reports whether q^e ≥ target without overflow.
func powAtLeast(q, e, target int) bool {
	acc := 1
	for i := 0; i < e; i++ {
		acc *= q
		if acc >= target {
			return true
		}
	}
	return acc >= target
}

// nextPrime returns the smallest prime ≥ n (n ≥ 2).
func nextPrime(n int) int {
	if n < 2 {
		n = 2
	}
	for {
		if isPrime(n) {
			return n
		}
		n++
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Verify checks that colors is a proper coloring of g.
func Verify(g *graph.Graph, colors []int32) bool {
	for v := int32(0); v < int32(g.N()); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v && colors[u] == colors[v] {
				return false
			}
		}
	}
	return true
}

// Normalize remaps colors to a dense range [0, count) preserving
// distinctness, so chunk indices don't waste PRG output on unused colors.
func Normalize(colors []int32) (dense []int32, count int) {
	seen := map[int32]int32{}
	dense = make([]int32, len(colors))
	for i, c := range colors {
		id, ok := seen[c]
		if !ok {
			id = int32(len(seen))
			seen[c] = id
		}
		dense[i] = id
	}
	return dense, len(seen)
}
