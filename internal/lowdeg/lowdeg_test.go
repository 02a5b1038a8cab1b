package lowdeg

import (
	"context"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

func TestIterativeDerandomizedProper(t *testing.T) {
	cases := map[string]*d1lc.Instance{
		"gnp":     d1lc.TrivialPalettes(graph.Gnp(200, 0.03, 1)),
		"cycle":   d1lc.TrivialPalettes(graph.Cycle(99)),
		"grid":    d1lc.TrivialPalettes(graph.Grid(10, 14)),
		"regular": d1lc.TrivialPalettes(graph.RandomRegular(150, 5, 2)),
		"delta+1": d1lc.DeltaPlus1Palettes(graph.Gnp(120, 0.05, 3)),
	}
	for name, in := range cases {
		col, stats, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d1lc.Verify(in, col); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cert := range stats.Certificates {
			if !cert.Guarantee() {
				t.Fatalf("%s: certificate violated", name)
			}
		}
	}
}

func TestIterativeDeterministic(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(150, 0.04, 7))
	a, _, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestIterativeRoundsLogarithmic(t *testing.T) {
	// Rounds should grow slowly with n (each round colors a constant
	// fraction — the conditional-expectations progress guarantee).
	small := mustStats(t, d1lc.TrivialPalettes(graph.RandomRegular(100, 4, 1)))
	big := mustStats(t, d1lc.TrivialPalettes(graph.RandomRegular(1600, 4, 1)))
	if big.Rounds > 4*small.Rounds+8 {
		t.Fatalf("rounds %d → %d: worse than logarithmic growth", small.Rounds, big.Rounds)
	}
}

func mustStats(t *testing.T, in *d1lc.Instance) Stats {
	t.Helper()
	col, stats, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestIterativeTinySeedSpaceStillTerminates(t *testing.T) {
	// SeedBits=1 gives a 2-seed family: fallbacks must keep it correct.
	in := d1lc.TrivialPalettes(graph.Complete(15))
	col, stats, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 1, MaxRounds: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	t.Logf("fallbacks=%d rounds=%d", stats.GreedyFallback, stats.Rounds)
}

func TestComponentGreedyProper(t *testing.T) {
	g := graph.DisjointUnion(graph.Complete(8), graph.Cycle(9), graph.Star(7))
	in := d1lc.TrivialPalettes(g)
	col, err := ComponentGreedy(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
}

func TestComponentGreedyCapacity(t *testing.T) {
	g := graph.Complete(20)
	in := d1lc.TrivialPalettes(g)
	if _, err := ComponentGreedy(in, 10); err == nil {
		t.Fatal("expected capacity error for a 20-node component")
	}
	if _, err := ComponentGreedy(in, 20); err != nil {
		t.Fatal(err)
	}
}

func TestMaxComponentSize(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(5, 6)
	g := b.Build()
	if s := MaxComponentSize(g); s != 3 {
		t.Fatalf("max component %d want 3", s)
	}
}

// TestTableScoringMatchesNaive is the differential test of the
// contribution-table engine: per-round seed, score and certificate, the
// fallback accounting, and the final coloring must be bit-identical to the
// naive per-seed oracle — across instances, both selection strategies, and
// worker counts 1, 4 and GOMAXPROCS (the default bound).
func TestTableScoringMatchesNaive(t *testing.T) {
	cases := map[string]*d1lc.Instance{
		"gnp":     d1lc.TrivialPalettes(graph.Gnp(150, 0.04, 2)),
		"regular": d1lc.TrivialPalettes(graph.RandomRegular(120, 5, 3)),
		"k15":     d1lc.TrivialPalettes(graph.Complete(15)),
		"delta+1": d1lc.DeltaPlus1Palettes(graph.Gnp(100, 0.06, 5)),
	}
	for name, in := range cases {
		for _, bitwise := range []bool{false, true} {
			for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS default
				o := Options{SeedBits: 6, Bitwise: bitwise}
				oNaive := naiveOpts(o)
				o.Par = par.NewRunner(workers)
				oNaive.Par = par.NewRunner(workers)
				colT, statsT, errT := IterativeDerandomized(context.Background(), in, o)
				colN, statsN, errN := IterativeDerandomized(context.Background(), in, oNaive)
				if errT != nil || errN != nil {
					t.Fatalf("%s: errs: table=%v naive=%v", name, errT, errN)
				}
				if statsT.Rounds != statsN.Rounds || statsT.GreedyFallback != statsN.GreedyFallback {
					t.Fatalf("%s/bitwise=%v/w=%d: stats diverge: %+v vs %+v",
						name, bitwise, workers, statsT, statsN)
				}
				for i := range statsT.Certificates {
					a, b := statsT.Certificates[i], statsN.Certificates[i]
					if a.Seed != b.Seed || a.Score != b.Score ||
						a.SumScores != b.SumScores || a.MeanUpper() != b.MeanUpper() {
						t.Fatalf("%s/bitwise=%v/w=%d round %d diverges:\ntable %+v\nnaive %+v",
							name, bitwise, workers, i, a, b)
					}
				}
				for v := range colT.Colors {
					if colT.Colors[v] != colN.Colors[v] {
						t.Fatalf("%s/bitwise=%v/w=%d: colorings diverge at node %d",
							name, bitwise, workers, v)
					}
				}
			}
		}
	}
}

// TestTableEvalReduction pins the bitwise eval saving on the live solver.
func TestTableEvalReduction(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(100, 0.05, 9))
	const d = 5
	_, statsT, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: d, Bitwise: true})
	if err != nil {
		t.Fatal(err)
	}
	_, statsN, err := IterativeDerandomized(context.Background(), in, naiveOpts(Options{SeedBits: d, Bitwise: true}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range statsT.Certificates {
		if got, want := statsT.Certificates[i].Evals, 1<<d; got != want {
			t.Fatalf("round %d: table evals %d, want %d", i, got, want)
		}
		if got, want := statsN.Certificates[i].Evals, 1<<(d+1)-2; got != want {
			t.Fatalf("round %d: naive bitwise evals %d, want %d", i, got, want)
		}
	}
}

func TestIterativeBitwiseProper(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(120, 0.05, 4))
	col, stats, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 6, Bitwise: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	for _, cert := range stats.Certificates {
		if !cert.Guarantee() {
			t.Fatal("bitwise certificate violated")
		}
	}
}

func BenchmarkIterativeDerandomized(b *testing.B) {
	in := d1lc.TrivialPalettes(graph.RandomRegular(300, 6, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedSelectionLowdeg ablates the scoring engine on a full
// iterative solve at n=300 (every trial round goes through seed
// selection): the contribution-table path (pooled participant-reset
// scratch + cached winning proposal) against the naive per-seed oracle,
// for both selection strategies. Results are identical across the axis;
// only cost differs.
func BenchmarkSeedSelectionLowdeg(b *testing.B) {
	in := d1lc.TrivialPalettes(graph.RandomRegular(300, 6, 1))
	for _, cfg := range []struct {
		name           string
		naive, bitwise bool
	}{
		{"naive/flat", true, false},
		{"naive/bitwise", true, true},
		{"table/flat", false, false},
		{"table/bitwise", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			o := Options{SeedBits: 8, Bitwise: cfg.bitwise}
			if cfg.naive {
				o = naiveOpts(o)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := IterativeDerandomized(context.Background(), in, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestFirstFreeFallbackPath(t *testing.T) {
	// A 1-seed space on K_n guarantees some zero-progress rounds that
	// exercise the firstFree fallback; with MaxRounds ≥ n it must finish.
	in := d1lc.TrivialPalettes(graph.Complete(10))
	col, stats, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 1, MaxRounds: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	if stats.GreedyFallback == 0 {
		t.Log("no fallbacks triggered this run (acceptable, seed family got lucky)")
	}
}

func TestIterativeMaxRoundsExhaustionStillProper(t *testing.T) {
	// Even with MaxRounds=1 the final FinishGreedy guarantees a complete
	// proper coloring.
	in := d1lc.TrivialPalettes(graph.Gnp(80, 0.1, 2))
	col, _, err := IterativeDerandomized(context.Background(), in, Options{SeedBits: 4, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
}
