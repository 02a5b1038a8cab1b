package linial

import (
	"testing"
	"testing/quick"

	"parcolor/internal/graph"
)

func TestColorProperOnSuite(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle":    graph.Cycle(101),
		"path":     graph.Path(64),
		"complete": graph.Complete(20),
		"gnp":      graph.Gnp(400, 0.02, 1),
		"regular":  graph.RandomRegular(300, 6, 2),
		"star":     graph.Star(50),
		"grid":     graph.Grid(12, 12),
	}
	for name, g := range graphs {
		res := Color(g)
		if !Verify(g, res.Colors) {
			t.Fatalf("%s: improper coloring", name)
		}
		for _, c := range res.Colors {
			if c < 0 || int(c) >= res.NumColors {
				t.Fatalf("%s: color %d outside [0,%d)", name, c, res.NumColors)
			}
		}
	}
}

func TestColorCountNearDeltaSquared(t *testing.T) {
	g := graph.RandomRegular(2000, 4, 3)
	res := Color(g)
	if !Verify(g, res.Colors) {
		t.Fatal("improper")
	}
	// Δ=4: expect O(Δ²·polylog) — generously, under 40·Δ².
	if res.NumColors > 40*4*4 {
		t.Fatalf("color count %d too large for Δ=4", res.NumColors)
	}
	if res.Rounds == 0 {
		t.Fatal("no reduction happened on a 2000-node instance")
	}
}

func TestColorRoundsLogStar(t *testing.T) {
	// Rounds should stay tiny even as n grows 100×.
	small := Color(graph.Cycle(100)).Rounds
	big := Color(graph.Cycle(10000)).Rounds
	if big > small+3 {
		t.Fatalf("rounds grew from %d to %d: not log*-like", small, big)
	}
	if big > 8 {
		t.Fatalf("rounds=%d too large", big)
	}
}

func TestColorEmptyAndSingleton(t *testing.T) {
	res := Color(graph.Empty(0))
	if res.NumColors != 0 {
		t.Fatal("empty graph")
	}
	res = Color(graph.Empty(1))
	if len(res.Colors) != 1 {
		t.Fatal("singleton")
	}
	res = Color(graph.Empty(50))
	if !Verify(graph.Empty(50), res.Colors) {
		t.Fatal("edgeless verify")
	}
}

func TestColorDeterministic(t *testing.T) {
	g := graph.Gnp(200, 0.05, 7)
	a := Color(g)
	b := Color(g)
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestColorOnPowerGraph(t *testing.T) {
	// The Lemma 10 use case: color G^4 so nodes within distance 4 differ.
	g := graph.Cycle(60)
	p4, err := graph.PowerGraph(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := Color(p4)
	if !Verify(p4, res.Colors) {
		t.Fatal("improper on power graph")
	}
	// Walk the cycle: any two nodes ≤ 4 apart must differ.
	for v := 0; v < 60; v++ {
		for d := 1; d <= 4; d++ {
			u := (v + d) % 60
			if res.Colors[v] == res.Colors[u] {
				t.Fatalf("nodes %d,%d at distance %d share chunk color", v, u, d)
			}
		}
	}
}

func TestNormalizeDense(t *testing.T) {
	dense, count := Normalize([]int32{7, 3, 7, 9, 3})
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
	want := []int32{0, 1, 0, 2, 1}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense=%v", dense)
		}
	}
}

func TestNormalizePreservesDistinctness(t *testing.T) {
	f := func(raw []uint8) bool {
		colors := make([]int32, len(raw))
		for i, r := range raw {
			colors[i] = int32(r % 16)
		}
		dense, count := Normalize(colors)
		for i := range colors {
			for j := range colors {
				if (colors[i] == colors[j]) != (dense[i] == dense[j]) {
					return false
				}
			}
			if int(dense[i]) >= count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimeHelpers(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 3, 4: 5, 14: 17, 20: 23, 100: 101}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Fatalf("nextPrime(%d)=%d want %d", in, got, want)
		}
	}
	if isPrime(1) || isPrime(9) || !isPrime(97) {
		t.Fatal("isPrime wrong")
	}
}

// TestAtFixedPoint pins the helper to ColorPar: where it holds for a
// graph's Δ the coloring stays the identity after zero rounds, and it
// stays true as delta grows (the monotonicity callers certify from).
func TestAtFixedPoint(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(8), graph.Cycle(9), graph.Cycle(80), graph.Cycle(1000),
		graph.Complete(20), graph.Star(50), graph.Empty(4), graph.Empty(5),
	} {
		n, delta := g.N(), g.MaxDegree()
		res := Color(g)
		if AtFixedPoint(delta, n) {
			if res.Rounds != 0 {
				t.Fatalf("n=%d Δ=%d: fixed point but %d rounds", n, delta, res.Rounds)
			}
			for v, c := range res.Colors {
				if int(c) != v {
					t.Fatalf("n=%d Δ=%d: fixed point but color[%d]=%d", n, delta, v, c)
				}
			}
		} else if res.Rounds == 0 {
			t.Fatalf("n=%d Δ=%d: no fixed point but no round ran", n, delta)
		}
	}
	for n := 0; n < 300; n++ {
		for delta := 0; delta < 40; delta++ {
			if AtFixedPoint(delta, n) && !AtFixedPoint(delta+1, n) {
				t.Fatalf("AtFixedPoint not monotone at Δ=%d, n=%d", delta, n)
			}
		}
	}
}

func BenchmarkColor(b *testing.B) {
	g := graph.RandomRegular(3000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Color(g)
	}
}
