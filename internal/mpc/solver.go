package mpc

import (
	"context"
	"fmt"

	"parcolor/internal/d1lc"
	"parcolor/internal/prg"
	"parcolor/internal/trace"
)

// DeterministicColorMPC colors an entire instance with every round
// executed on the cluster: derandomized TryRandomColor rounds
// (DerandomizedTRCRound — the full Lemma 10 protocol per round) until no
// seed makes progress, then the residue is collected onto machine 0 and
// colored greedily (Theorem 12's base case). This is the Theorem 1
// base-case solver with zero shared-memory shortcuts; the in-process
// solvers exist because they are orders of magnitude faster, and tests pin
// them to this one.
//
// Requires Δ+1 ≤ maxPal palettes and a cluster from ClusterForGraph with
// one machine per node. Returns the coloring, the solver's accounting,
// and an error only for invalid instances.
type MPCSolveStats struct {
	TRCRounds  int // derandomized trial rounds executed
	MPCRounds  int // total engine rounds, incl. selection trees
	Residue    int // nodes colored by the machine-0 greedy
	SeedsTried int
}

// DeterministicColorMPC runs the solver. seedBits bounds the per-round
// seed space (Θ(log Δ) in the paper). ctx cancels the run at every engine
// round boundary (the cluster checks it before executing a round); tr, if
// non-nil, observes one phase per derandomized TRC round plus the residue
// greedy. opt selects the seed-selection protocol; the zero value runs the
// row-sharded converge-cast.
func DeterministicColorMPC(ctx context.Context, c *Cluster, in *d1lc.Instance, seedBits int, maxRounds int, tr trace.Tracer, opt RoundOptions) (_ *d1lc.Coloring, stats MPCSolveStats, _ error) {
	g := in.G
	n := g.N()
	c.SetContext(ctx)
	defer c.SetContext(nil)
	if err := in.Check(); err != nil {
		return nil, stats, err
	}
	if seedBits < 1 || seedBits > 14 {
		return nil, stats, fmt.Errorf("mpc: seedBits %d out of range", seedBits)
	}
	if maxRounds == 0 {
		maxRounds = 8 * log2i(n+2)
	}
	col := d1lc.NewColoring(n)
	remaining := make([][]int32, n)
	maxPal := 1
	for v := range remaining {
		remaining[v] = append([]int32(nil), in.Palettes[v]...)
		if len(remaining[v]) > maxPal {
			maxPal = len(remaining[v])
		}
	}
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	bitsPer := 8 * log2i(maxPal+1)
	gen := prg.NewKWise(4, seedBits, n*bitsPer)
	numSeeds := 1 << seedBits
	start := c.Metrics.Rounds
	for round := 0; round < maxRounds && col.UncoloredCount() > 0; round++ {
		sp := trace.Begin(tr, "mpc", "trc-round", round, col.UncoloredCount())
		_, colored, _, err := DerandomizedTRCRound(c, in, col, remaining, chunkOf, n, gen, numSeeds, opt)
		if err != nil {
			sp.End(0, 0, 0)
			return nil, stats, err
		}
		stats.TRCRounds++
		stats.SeedsTried += numSeeds
		sp.End(numSeeds, colored, 0)
		if colored == 0 {
			break // no seed progresses: hand the rest to the base case
		}
	}
	// Theorem 12 base case: ship the residue (induced edges + palettes) to
	// machine 0 and color greedily there. One gather round; the engine
	// accounts the words.
	spResidue := trace.Begin(tr, "mpc", "residue-greedy", stats.TRCRounds, col.UncoloredCount())
	residue := make([]bool, n)
	err := c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= n {
			return
		}
		v := int32(m.ID)
		if col.Colors[v] != d1lc.Uncolored {
			return
		}
		residue[v] = true
		msg := make([]int64, 0, len(remaining[v])+2)
		msg = append(msg, -4, int64(v))
		for _, cc := range remaining[v] {
			msg = append(msg, int64(cc))
		}
		out.Send(0, msg)
	})
	if err != nil {
		spResidue.End(0, 0, 0)
		return nil, stats, err
	}
	pal := map[int32][]int32{}
	for _, del := range c.Machines[0].Inbox {
		r := del.Rec
		if len(r) < 2 || r[0] != -4 {
			continue
		}
		v := int32(r[1])
		p := make([]int32, 0, len(r)-2)
		for _, w := range r[2:] {
			p = append(p, int32(w))
		}
		pal[v] = p
	}
	c.Machines[0].Inbox = nil
	for v := int32(0); v < int32(n); v++ {
		if !residue[v] {
			continue
		}
		assigned := false
		for _, cc := range pal[v] {
			ok := true
			for _, u := range g.Neighbors(v) {
				if col.Colors[u] == cc {
					ok = false
					break
				}
			}
			if ok {
				col.Colors[v] = cc
				stats.Residue++
				assigned = true
				break
			}
		}
		if !assigned {
			spResidue.End(0, stats.Residue, 0)
			return nil, stats, fmt.Errorf("mpc: residue greedy stuck at node %d", v)
		}
	}
	spResidue.End(0, stats.Residue, 0)
	stats.MPCRounds = c.Metrics.Rounds - start
	return col, stats, nil
}

func log2i(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
