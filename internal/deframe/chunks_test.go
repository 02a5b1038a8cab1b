package deframe

import (
	"slices"
	"testing"

	"parcolor/internal/graph"
	"parcolor/internal/linial"
)

// chunkOracle is chunkAssignment without the pre-build probe: always
// build G^radius under the per-node ball budget, color it with Linial's
// algorithm, and fall back to identity chunks when the build fails or
// exceeds maxEdges.
func chunkOracle(g *graph.Graph, radius, maxEdges int) (chunkOf []int32, numChunks int, mode string) {
	n := g.N()
	if n == 0 {
		return nil, 0, "empty"
	}
	power, err := graph.PowerGraphPar(nil, g, radius, maxInt(maxEdges/n, 8))
	if err == nil && power.M() <= maxEdges {
		dense, count := linial.Normalize(linial.ColorPar(nil, power).Colors)
		return dense, count, "linial-power"
	}
	chunkOf = make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	return chunkOf, n, "identity"
}

// TestChunkAssignmentMatchesOracle checks the probe shortcut against the
// always-build oracle: chunkOf and numChunks must match on every graph,
// on both the shortcut path (dense graphs at Linial's fixed point, or a
// probe ball over budget) and the build path. The mode may differ only in
// the documented direction: the probe ball fits but the build would have
// overflowed elsewhere, so "identity" becomes "linial-power".
func TestChunkAssignmentMatchesOracle(t *testing.T) {
	named := func(name string, n int) *graph.Graph {
		g, err := graph.Named(name, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		maxEdges int
		drift    []int // radii with the documented "identity" → "linial-power" relabel
	}{
		{"cycle-80", graph.Cycle(80), 2_000_000, nil},
		{"cycle-1000", graph.Cycle(1000), 2_000_000, nil},
		{"cycle-2000", graph.Cycle(2000), 2_000_000, nil},
		{"mixed-200", named("mixed", 200), 2_000_000, nil},
		{"mixed-800", named("mixed", 800), 2_000_000, nil},
		{"cliques", named("cliques", 300), 2_000_000, nil},
		{"chunglu", named("chunglu", 1000), 2_000_000, nil},
		{"complete", graph.Complete(30), 2_000_000, nil},
		{"gnp-sparse", named("gnp-sparse", 1500), 2_000_000, nil},
		// DisjointUnion bridges block heads only: 23 nodes stay isolated.
		{"isolated", graph.DisjointUnion(graph.Empty(20), graph.Cycle(200), graph.Empty(5)), 2_000_000, nil},
		{"edgeless", graph.Empty(50), 2_000_000, nil},
		{"n=1", graph.Empty(1), 2_000_000, nil},
		// At radius 4 each cycle ball (8 nodes) fits the 8-node budget and
		// certifies the fixed point (11² ≥ 80), but G^4's 320 edges exceed
		// maxEdges=10: the build reported "identity".
		{"budget-cycle-80", graph.Cycle(80), 10, []int{4}},
		{"budget-mixed", named("mixed", 200), 10, nil},
		// K4's probe ball (3 nodes) certifies the fixed point for n=24
		// (5² ≥ 24), while the path's middle balls (up to 2·radius > 8)
		// would fail the build.
		{"budget-drift", k4AndPath20(), 10, []int{4, 8}},
	}
	for _, tc := range cases {
		for _, radius := range []int{4, 8} {
			chunkOf, num, mode := chunkAssignment(nil, tc.g, radius, tc.maxEdges)
			wantOf, wantNum, wantMode := chunkOracle(tc.g, radius, tc.maxEdges)
			if num != wantNum || len(chunkOf) != len(wantOf) {
				t.Fatalf("%s r=%d: %d chunks over %d nodes, oracle %d over %d",
					tc.name, radius, num, len(chunkOf), wantNum, len(wantOf))
			}
			for v := range wantOf {
				if chunkOf[v] != wantOf[v] {
					t.Fatalf("%s r=%d: chunkOf[%d] = %d, oracle %d", tc.name, radius, v, chunkOf[v], wantOf[v])
				}
			}
			drifted := mode == "linial-power" && wantMode == "identity"
			if drifted != slices.Contains(tc.drift, radius) || (!drifted && mode != wantMode) {
				t.Fatalf("%s r=%d: mode %q, oracle %q", tc.name, radius, mode, wantMode)
			}
		}
	}
}

// k4AndPath20 is K4 and P20 as disjoint components (graph.DisjointUnion
// would bridge them, giving the probe node a path neighbor).
func k4AndPath20() *graph.Graph {
	b := graph.NewBuilder(24)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	for v := int32(4); v < 23; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}
