// MPC-faithful run: color an instance with every round executed on the
// simulated sublinear-space MPC cluster — per-round Lemma 10
// derandomization (PRG chunks, palette exchange, the distributed method of
// conditional expectations, commit rounds) with word-accurate space
// accounting. This is the slow, model-exact path; compare the space
// high-water marks it reports against the s = n^φ budget.
//
//	go run ./examples/mpcfaithful
package main

import (
	"fmt"
	"log"

	"parcolor"
)

func main() {
	g := parcolor.GenerateGraph("gnp-sparse", 120, 3)
	in := parcolor.TrivialPalettes(g)

	s := 1 << 14 // local space budget in words
	res, err := parcolor.SolveOnMPC(in, s, 6)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("instance: n=%d m=%d maxDeg=%d\n", g.N(), g.M(), g.MaxDegree())
	fmt.Printf("cluster: %d machines, s=%d words\n", res.Machines, s)
	fmt.Printf("derandomized trial rounds: %d (MPC engine rounds incl. selection trees: %d)\n",
		res.TrialRounds, res.MPCRounds)
	fmt.Printf("space high-water: stored=%d sent=%d received=%d (of s=%d), violations=%d\n",
		res.MaxStored, res.MaxSent, res.MaxReceived, s, res.Violations)

	if err := parcolor.Verify(in, res.Coloring); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: proper coloring, produced entirely by cluster rounds")

	// The shared-memory Theorem 1 solver gives the same guarantee much
	// faster; the point of this path is model fidelity, not speed.
	fast, err := parcolor.Solve(in, parcolor.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(shared-memory deterministic solver for comparison: %d LOCAL rounds, %d colors)\n",
		fast.Rounds, fast.DistinctColors)
}
