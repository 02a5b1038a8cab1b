package experiments

import (
	"context"
	"fmt"

	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/stats"
)

func init() { register("E11", e11ChunkModeAblation) }

// e11ChunkModeAblation compares the two Lemma 10 chunk-distribution modes:
// the paper's power-graph coloring (O(Δ^{8τ}) chunks, short PRG output)
// versus identity chunking (n chunks, long PRG output but no power graph).
// Correctness is identical; what differs is the chunk count — the PRG
// output length a machine must hold — and the wall-clock effect of
// materializing G^{4τ}.
func e11ChunkModeAblation(cfg Config) *stats.Table {
	t := stats.New("E11", "Chunk distribution ablation (Lemma 10)",
		"linial-power keeps chunk counts degree-bound (PRG output fits machines); identity always works but needs n chunks",
		"graph", "n", "maxDeg", "mode", "chunks", "rounds", "proper")
	type variant struct {
		name     string
		maxEdges int
	}
	variants := []variant{
		{"linial-power", 2_000_000},
		{"identity", 1}, // force the fallback
	}
	workloads := []string{"cycle", "regular", "gnp-sparse"}
	for _, w := range workloads {
		// The largest configured size. Only there does the gap show, and
		// only on the cycle: at n=1600, Δ(G^8)=16 lets Linial reduce below
		// n. At quick sizes (n=160) nextPrime(17)² = 289 ≥ n, so Linial is
		// at its fixed point and both modes report n chunks; regular and
		// gnp-sparse balls exceed the per-node budget at n=1600 and fall
		// back to identity chunks in both variants.
		n := cfg.sizes()[len(cfg.sizes())-1]
		g, err := graph.Named(w, n, cfg.Seed)
		if err != nil {
			panic(err)
		}
		in := d1lc.TrivialPalettes(g)
		for _, v := range variants {
			col, rep, err := deframe.Run(context.Background(), in, deframe.Options{
				SeedBits:           cfg.SeedBits,
				MaxChunkGraphEdges: v.maxEdges,
				Tunables:           hknt.Tunables{LowDeg: 4},
			})
			proper := err == nil && d1lc.Verify(in, col) == nil
			chunks := 0
			mode := rep.ChunkMode
			for _, s := range rep.Steps {
				if s.Chunks > chunks {
					chunks = s.Chunks
				}
			}
			t.Add(w, g.N(), g.MaxDegree(), mode, chunks, rep.TotalRounds(), yesNo(proper))
		}
	}
	return t
}

func init() { register("E12", e12SlackColorAblation) }

// e12SlackColorAblation sweeps SlackColor's (s_min, κ): κ controls the
// length of the geometric MultiTrial phase (⌈1/κ⌉ iterations of 3 trials),
// s_min sets ρ = s_min^{1/(1+κ)}. The table shows the schedule length and
// the resulting live count after the cascade on a fixed slack-rich
// workload — the design-choice ablation DESIGN.md calls out.
func e12SlackColorAblation(cfg Config) *stats.Table {
	t := stats.New("E12", "SlackColor (s_min, κ) ablation",
		"steps = schedule length (O(log*ρ + 1/κ)); liveAfter = uncolored participants after the cascade",
		"smin", "kappa", "steps", "participants", "liveAfter", "coloredFrac")
	n := cfg.sizes()[0] * 2
	deg := 16
	g := graph.RandomRegular(n, deg, cfg.Seed)
	in := d1lc.RandomPalettes(g, 2, 3*deg, cfg.Seed)
	type setting struct {
		smin  int
		kappa float64
	}
	settings := []setting{
		{2, 0.25}, {4, 0.25}, {4, 0.5}, {8, 0.5}, {8, 1.0}, {16, 0.5},
	}
	if cfg.Quick {
		settings = settings[:4]
	}
	for _, s := range settings {
		st := hknt.NewState(in)
		base := st.LiveNodes(nil)
		tun := hknt.Tunables{TRCRounds: 1, Smin: s.smin, Kappa: s.kappa}.WithDefaults(n, deg)
		steps := hknt.SlackColorSchedule(fmt.Sprintf("s%dk%.2f", s.smin, s.kappa), base, 3*deg, tun)
		for i := range steps {
			step := &steps[i]
			parts := step.Participants(st)
			if len(parts) == 0 {
				continue
			}
			src := hknt.FreshSource{Root: cfg.Seed, Round: uint64(i), Bits: step.Bits}
			st.Apply(step.Propose(st, parts, src, nil))
		}
		live := len(st.LiveNodes(nil))
		colored := float64(len(base)-live) / float64(len(base))
		t.Add(s.smin, s.kappa, len(steps), len(base), live, colored)
	}
	return t
}
