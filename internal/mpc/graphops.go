package mpc

import (
	"fmt"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/rng"
)

// This file implements the graph-on-MPC subroutines of Lemma 17: with one
// machine responsible per node and Δ ≤ √s, nodes can exchange Θ(d(v))-word
// messages with all neighbors and collect 2-hop neighborhoods in O(1)
// rounds. These are the communication-critical primitives whose space
// behaviour experiment E9 measures.

// HomeOf maps node v to its responsible machine under the standard layout:
// machine v among the first n machines.
func HomeOf(v int32) int { return int(v) }

// edgeChunkCapacity is the number of words of 2-word edge records one
// machine holds during the initial load: at most half the local space,
// rounded down to a whole number of records.
func edgeChunkCapacity(s int) int {
	c := s / 2
	c -= c % 2
	if c < 2 {
		c = 2
	}
	return c
}

// ClusterForGraph builds a cluster sized for g under local space s: one
// machine per node plus enough machines to hold the edge list in chunks
// that respect edgeChunkCapacity.
func ClusterForGraph(g *graph.Graph, s int, strict bool) (*Cluster, error) {
	n := g.N()
	edgeWords := 2 * 2 * g.M() // both directions, 2 words each
	cap := edgeChunkCapacity(s)
	extra := (edgeWords + cap - 1) / cap
	return NewCluster(Config{Machines: n + extra + 1, LocalSpace: s, Strict: strict})
}

// LoadEdges scatters the (directed both ways) edge records of g across the
// machines after the first n, in chunks that respect local space. This is
// the "input arbitrarily distributed" starting condition of the model.
func LoadEdges(c *Cluster, g *graph.Graph) error {
	n := g.N()
	chunk := edgeChunkCapacity(c.cfg.LocalSpace)
	mi := n
	used := 0
	put := func(rec []int64) error {
		if mi >= len(c.Machines) {
			return fmt.Errorf("mpc: not enough machines for edge load")
		}
		c.Machines[mi].Recs = append(c.Machines[mi].Recs, rec)
		used += len(rec)
		if used >= chunk {
			mi++
			used = 0
		}
		return nil
	}
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if err := put([]int64{int64(u), int64(v)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// GatherNeighborhoods routes every edge record (u,v) to HomeOf(u), so each
// node's home machine afterwards stores its full adjacency list: one MPC
// round, feasible whenever Δ ≤ s (receive volume 2·d(u)).
func GatherNeighborhoods(c *Cluster, n int) error {
	err := c.Round(func(m *Machine, out *Mailer) {
		if m.ID < n {
			return // homes hold no edge chunks initially
		}
		for _, r := range m.Recs {
			out.Send(HomeOf(int32(r[0])), r)
		}
		m.Recs = nil
	})
	if err != nil {
		return err
	}
	return c.Round(func(m *Machine, out *Mailer) {
		m.AbsorbInbox()
		sortLocal(m)
	})
}

// Adjacency reads node v's gathered adjacency list from its home machine.
func Adjacency(c *Cluster, v int32) []int32 {
	m := c.Machines[HomeOf(v)]
	out := make([]int32, 0, len(m.Recs))
	for _, r := range m.Recs {
		if len(r) == 2 && r[0] == int64(v) {
			out = append(out, int32(r[1]))
		}
	}
	return out
}

// Gather2Hop has every home machine broadcast its adjacency list to each
// neighbor's home, so each home afterwards also stores records
// (u, w) for every neighbor u and each of u's neighbors w — the 2-hop
// neighborhood needed to compute sparsity ζ_v and the ACD (Lemma 18/19).
// Send volume per machine is d(v)·(d(v)+1) words, hence the Δ ≤ √s
// requirement the paper states.
func Gather2Hop(c *Cluster, g *graph.Graph) error {
	err := c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= g.N() {
			return
		}
		v := int32(m.ID)
		ns := g.Neighbors(v)
		msg := make([]int64, 0, len(ns)+1)
		msg = append(msg, int64(v))
		for _, w := range ns {
			msg = append(msg, int64(w))
		}
		for _, u := range ns {
			out.Send(HomeOf(u), msg)
		}
	})
	if err != nil {
		return err
	}
	return c.Round(func(m *Machine, out *Mailer) {
		m.AbsorbInbox()
	})
}

// SparsityFromCluster computes m(N(v)), the number of edges among v's
// neighbors, from the records gathered by Gather2Hop, for every node.
// The computation is per-home-machine local, as in Lemma 18.
func SparsityFromCluster(c *Cluster, g *graph.Graph) []int64 {
	n := g.N()
	out := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		m := c.Machines[HomeOf(v)]
		isNbr := map[int64]bool{}
		for _, w := range g.Neighbors(v) {
			isNbr[int64(w)] = true
		}
		var cnt int64
		for _, r := range m.Recs {
			if len(r) < 1 {
				continue
			}
			u := r[0]
			if len(r) >= 2 && isNbr[u] {
				for _, w := range r[1:] {
					if isNbr[w] && u < w {
						cnt++
					}
				}
			}
		}
		out[v] = cnt
	}
	return out
}

// TryRandomColorRound executes one faithful MPC implementation of
// Algorithm 3 (TryRandomColor): every uncolored node's home picks a
// uniform candidate from the node's remaining palette, exchanges it with
// all neighbor homes in one round, keeps it iff no conflicting neighbor
// picked the same color, and announces permanent colors in a second round
// so homes can prune palettes. Takes O(1) MPC rounds; mutates col.
//
// remaining[v] must hold v's current palette (colors not yet taken by
// colored neighbors); it is pruned in place.
func TryRandomColorRound(c *Cluster, in *d1lc.Instance, col *d1lc.Coloring, remaining [][]int32, seed uint64, round int) error {
	n := in.G.N()
	cand := make([]int64, n)
	for v := range cand {
		cand[v] = -1
	}
	// Round A: pick + exchange candidates.
	err := c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= n {
			return
		}
		v := int32(m.ID)
		if col.Colors[v] != d1lc.Uncolored || len(remaining[v]) == 0 {
			return
		}
		s := rng.At2(seed, uint64(v), uint64(round))
		cv := remaining[v][s.Intn(len(remaining[v]))]
		cand[v] = int64(cv)
		for _, u := range in.G.Neighbors(v) {
			out.Send(HomeOf(u), []int64{int64(v), int64(cv)})
		}
	})
	if err != nil {
		return err
	}
	// Round B: resolve conflicts, announce permanent colors.
	won := make([]bool, n)
	err = c.Round(func(m *Machine, out *Mailer) {
		if m.ID >= n {
			return
		}
		v := int32(m.ID)
		if cand[v] < 0 {
			m.Inbox = nil
			return
		}
		conflict := false
		for _, d := range m.Inbox {
			if d.Rec[1] == cand[v] {
				conflict = true
				break
			}
		}
		m.Inbox = nil
		if conflict {
			return
		}
		won[v] = true
		for _, u := range in.G.Neighbors(v) {
			out.Send(HomeOf(u), []int64{int64(v), cand[v]})
		}
	})
	if err != nil {
		return err
	}
	// Apply: winners color themselves; homes prune palettes.
	for v := int32(0); v < int32(n); v++ {
		if won[v] {
			col.Colors[v] = int32(cand[v])
		}
	}
	for v := int32(0); v < int32(n); v++ {
		m := c.Machines[HomeOf(v)]
		if len(m.Inbox) == 0 {
			continue
		}
		blocked := map[int32]bool{}
		for _, d := range m.Inbox {
			blocked[int32(d.Rec[1])] = true
		}
		m.Inbox = nil
		if col.Colors[v] != d1lc.Uncolored {
			continue
		}
		kept := remaining[v][:0]
		for _, ccol := range remaining[v] {
			if !blocked[ccol] {
				kept = append(kept, ccol)
			}
		}
		remaining[v] = kept
	}
	return nil
}
