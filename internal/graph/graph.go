// Package graph provides the compressed-sparse-row graph kernel shared by
// every algorithm in the repository: construction, generators for the
// workloads of the experiment suite, induced subgraphs (the self-reduction
// step of Definition 11), line graphs (the (2Δ−1)-edge-coloring reduction),
// bounded-radius power graphs (G^{4τ} for Lemma 10), and connected
// components (the shattering experiment E5).
//
// Graphs are simple and undirected. Nodes are int32 indices [0, n).
//
// # Construction at scale
//
// Two construction paths share the CSR layout:
//
//   - Builder accumulates an explicit edge list (duplicates and self-loops
//     tolerated) and builds in O(n+m): a counting placement scatters both
//     arc directions straight into the output adjacency array, then each
//     list is sorted and deduplicated independently — parallel across
//     nodes, no global comparison sort, no allocation beyond the output
//     (plus the caller's edge list, which is never larger than the output).
//
//   - StreamBuilder is the two-pass path for producers that can enumerate
//     their arcs twice (induced subgraphs, power graphs, streamed
//     generators): pass one counts per-node degrees, pass two writes arcs
//     directly into the final adjacency array. No intermediate edge list
//     exists at any point, so peak memory is exactly the output CSR.
//
// # Degree-sorted sharding (relabel.go)
//
// Relabeling permutes vertices into degree-sorted order and cuts the new
// id space into shards whose adjacency storage fits a cache budget.
// NewOf/OldOf are inverse bijections; a coloring computed on the relabeled
// graph maps back through OldOf exactly (MapColoringBack), so the layout
// is a pure optimization — solvers observe a relabeled instance, callers
// observe original ids, bit-for-bit.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"parcolor/internal/par"
)

// Graph is an immutable undirected simple graph in CSR form.
// Adjacency lists are sorted ascending, which several algorithms rely on
// (sorted-merge intersection in the ACD, binary-search adjacency tests).
type Graph struct {
	offsets []int32 // len n+1
	adj     []int32 // len 2m, neighbor lists back to back
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// ArcOffset returns the index of v's first arc in the global CSR arc
// order (arc k of v is global arc ArcOffset(v)+k). Per-arc side tables —
// the shared common-neighbor counts of the parameter/ACD passes — are
// indexed with it.
func (g *Graph) ArcOffset(v int32) int { return int(g.offsets[v]) }

// HasEdge reports whether {u,v} is an edge, by binary search on the shorter
// adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// MaxDegree returns Δ, the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	maxD := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Edges appends every edge {u,v} with u < v to dst and returns it.
func (g *Graph) Edges(dst [][2]int32) [][2]int32 {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				dst = append(dst, [2]int32{u, v})
			}
		}
	}
	return dst
}

// Validate checks structural invariants (sortedness, symmetry, no loops,
// no duplicates) and returns a descriptive error on the first violation.
// It is used by generator tests and by property-based tests.
func (g *Graph) Validate() error {
	n := int32(g.N())
	for v := int32(0); v < n; v++ {
		ns := g.Neighbors(v)
		for i, u := range ns {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && ns[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at %d", v, i)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", v, u)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are dropped during Build, so generators may add carelessly.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for an n-node graph.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Reserve grows the edge buffer to hold at least m edges, so generators
// that know their size up front avoid append's geometric reallocation —
// at million-edge scale the doubling overshoot alone is tens of MB.
func (b *Builder) Reserve(m int) {
	if cap(b.edges) < m {
		b.edges = append(make([][2]int32, 0, m), b.edges...)
	}
}

// AddEdge records the undirected edge {u,v}. Out-of-range endpoints panic:
// they are programming errors in generators, not data errors.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range n=%d", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build constructs the CSR graph on the process-default worker bound.
// The builder may be reused afterwards. Construction inside a
// budget-scoped solve goes through BuildPar.
func (b *Builder) Build() *Graph { return b.BuildPar(nil) }

// BuildPar is Build with the per-node sort fan-out scoped to r's workers
// (nil = process default): leaf construction phases inside a solve honor
// the solve's budget instead of falling back to GOMAXPROCS.
//
// The build is O(n+m) counting placement plus independent per-node sorts:
// both arc directions scatter straight into the output adjacency array,
// then each list sorts and deduplicates in place. There is no global edge
// sort (the former comparison sort over the whole edge list was the
// super-linear, reflection-heavy step at million-edge scale), and the
// only allocation beyond the output CSR is one n+1 cursor array.
func (b *Builder) BuildPar(r *par.Runner) *Graph {
	// Counting placement: degrees including duplicates; per-list dedup
	// happens after the per-node sorts, followed by one compaction.
	counts := make([]int32, b.n+1)
	for _, e := range b.edges {
		counts[e[0]+1]++
		counts[e[1]+1]++
	}
	for i := 0; i < b.n; i++ {
		counts[i+1] += counts[i]
	}
	offsets := counts
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		adj[int(offsets[u])+int(cursor[u])] = v
		cursor[u]++
		adj[int(offsets[v])+int(cursor[v])] = u
		cursor[v]++
	}
	// Sort and dedup each list independently; record the deduped lengths
	// in cursor for the compaction pass. Workers touch disjoint indices,
	// so the duplicate check is a sequential sum afterwards.
	r.ForChunked(b.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := adj[offsets[i]:offsets[i+1]]
			slices.Sort(s)
			cursor[i] = int32(dedupSorted(s))
		}
	})
	kept := 0
	for i := 0; i < b.n; i++ {
		kept += int(cursor[i])
	}
	if kept == len(adj) {
		return &Graph{offsets: offsets, adj: adj}
	}
	// Compact out the per-list tails the dedup left behind. Sequential
	// O(n+m); runs only when duplicates actually occurred.
	newOff := make([]int32, b.n+1)
	for i := 0; i < b.n; i++ {
		newOff[i+1] = newOff[i] + cursor[i]
	}
	w := int32(0)
	for i := 0; i < b.n; i++ {
		lo := offsets[i]
		copy(adj[w:], adj[lo:lo+cursor[i]])
		w += cursor[i]
	}
	return &Graph{offsets: newOff, adj: adj[:w:w]}
}

// dedupSorted compacts consecutive duplicates in a sorted slice in place
// and returns the deduplicated length.
func dedupSorted(s []int32) int {
	if len(s) < 2 {
		return len(s)
	}
	k := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[k-1] {
			s[k] = s[i]
			k++
		}
	}
	return k
}

// StreamBuilder constructs a CSR graph in two passes without ever holding
// an intermediate edge list: pass one counts each node's arcs (CountArc /
// CountEdge), pass two writes them directly into the final adjacency
// array (FillArc / FillEdge). Producers that can enumerate their arcs
// twice — induced subgraphs, power-graph balls, streamed generators — pay
// exactly the output CSR in memory, nothing else.
//
// The producer must emit the same multiset of arcs in both passes: every
// directed arc u→v exactly once (use CountEdge/FillEdge to emit both
// directions of an undirected edge at once), no self-loops, no
// duplicates. Finish checks the two passes agreed on every node's count
// and that each list is duplicate-free after sorting, returning an error
// otherwise.
type StreamBuilder struct {
	n       int
	offsets []int32 // counts during pass 1, prefix-summed by BeginFill
	cursor  []int32
	adj     []int32
	filling bool
}

// NewStreamBuilder returns a streaming builder for an n-node graph,
// starting in the counting pass.
func NewStreamBuilder(n int) *StreamBuilder {
	return &StreamBuilder{n: n, offsets: make([]int32, n+1)}
}

// CountArc records, during the counting pass, that u will receive one
// neighbor entry.
func (b *StreamBuilder) CountArc(u int32) { b.offsets[u+1]++ }

// CountArcs records k neighbor entries for u at once (a BFS ball's size,
// a filtered adjacency length).
func (b *StreamBuilder) CountArcs(u int32, k int) { b.offsets[u+1] += int32(k) }

// CountEdge counts both directions of the undirected edge {u,v}.
func (b *StreamBuilder) CountEdge(u, v int32) {
	b.offsets[u+1]++
	b.offsets[v+1]++
}

// BeginFill ends the counting pass: offsets are prefix-summed and the
// adjacency array is allocated at its exact final size.
func (b *StreamBuilder) BeginFill() {
	for i := 0; i < b.n; i++ {
		b.offsets[i+1] += b.offsets[i]
	}
	b.adj = make([]int32, b.offsets[b.n])
	b.cursor = make([]int32, b.n)
	b.filling = true
}

// FillArc writes, during the fill pass, the directed arc u→v.
func (b *StreamBuilder) FillArc(u, v int32) {
	b.adj[int(b.offsets[u])+int(b.cursor[u])] = v
	b.cursor[u]++
}

// FillEdge writes both directions of the undirected edge {u,v}.
func (b *StreamBuilder) FillEdge(u, v int32) {
	b.FillArc(u, v)
	b.FillArc(v, u)
}

// Finish sorts each adjacency list (parallel on r's workers; nil =
// process default) and returns the graph. sortedLists tells Finish the
// producer filled every list already sorted ascending (monotone mappings
// of sorted source lists), skipping the sort pass entirely. Finish errors
// if the two passes disagreed on any node's arc count or a list holds a
// duplicate or self-loop — a producer bug surfaced loudly rather than a
// corrupt graph.
func (b *StreamBuilder) Finish(r *par.Runner, sortedLists bool) (*Graph, error) {
	if !b.filling {
		return nil, fmt.Errorf("graph: StreamBuilder.Finish before BeginFill")
	}
	for i := 0; i < b.n; i++ {
		if got, want := b.cursor[i], b.offsets[i+1]-b.offsets[i]; got != want {
			return nil, fmt.Errorf("graph: StreamBuilder node %d filled %d arcs, counted %d", i, got, want)
		}
	}
	if !sortedLists {
		r.ForChunked(b.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				slices.Sort(b.adj[b.offsets[i]:b.offsets[i+1]])
			}
		})
	}
	for i := 0; i < b.n; i++ {
		s := b.adj[b.offsets[i]:b.offsets[i+1]]
		for j := range s {
			if s[j] == int32(i) || (j > 0 && s[j-1] >= s[j]) {
				return nil, fmt.Errorf("graph: StreamBuilder node %d list invalid at %d (dup, unsorted or self-loop)", i, j)
			}
		}
	}
	return &Graph{offsets: b.offsets, adj: b.adj}, nil
}

// FromAdjacency constructs a graph directly from adjacency lists; used by
// tests and by quick-check shrinkers. Lists may be unsorted and contain
// duplicates; symmetry is completed automatically.
func FromAdjacency(lists [][]int32) *Graph {
	b := NewBuilder(len(lists))
	for u, ns := range lists {
		for _, v := range ns {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by keep (any order, no
// duplicates) along with origOf mapping new indices to original ones.
// It is the graph half of D1LC self-reduction (Definition 11).
func InducedSubgraph(g *Graph, keep []int32) (sub *Graph, origOf []int32) {
	return InducedSubgraphPar(nil, g, keep)
}

// InducedSubgraphPar is InducedSubgraph with construction scoped to r's
// workers (nil = process default), so residue and bin sub-instances built
// inside a budget-scoped solve honor the solve's worker bound.
//
// The build is streaming: kept neighbors are located by binary search in
// the sorted keep set (no O(n) translation map, no per-call hashing), the
// counting pass sizes each adjacency list, and the fill pass writes the
// relabeled neighbors directly into the output CSR. Because origOf is
// ascending, the old→new mapping is monotone and every filled list is
// already sorted — the whole construction is comparison-sort-free.
func InducedSubgraphPar(r *par.Runner, g *Graph, keep []int32) (sub *Graph, origOf []int32) {
	origOf = append([]int32(nil), keep...)
	slices.Sort(origOf)
	k := len(origOf)
	b := NewStreamBuilder(k)
	// newIndex locates u in origOf, or -1. Galloping would help for very
	// sparse keeps; plain binary search keeps both passes identical.
	newIndex := func(u int32) int32 {
		i, ok := slices.BinarySearch(origOf, u)
		if !ok {
			return -1
		}
		return int32(i)
	}
	r.ForChunked(k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cnt := 0
			for _, u := range g.Neighbors(origOf[i]) {
				if newIndex(u) >= 0 {
					cnt++
				}
			}
			// Disjoint i per worker: CountArcs races with nothing.
			b.CountArcs(int32(i), cnt)
		}
	})
	b.BeginFill()
	r.ForChunked(k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, u := range g.Neighbors(origOf[i]) {
				if j := newIndex(u); j >= 0 {
					b.FillArc(int32(i), j)
				}
			}
		}
	})
	sub, err := b.Finish(r, true)
	if err != nil {
		panic(fmt.Sprintf("graph: induced subgraph construction: %v", err))
	}
	return sub, origOf
}

// LineGraph returns the line graph L(G) (nodes = edges of G, adjacency =
// sharing an endpoint) plus the list of original edges indexed by line-graph
// node. A proper (deg+1)-list coloring of L(G) with palettes of size
// 2Δ−1 yields a (2Δ−1)-edge coloring of G.
func LineGraph(g *Graph) (lg *Graph, edges [][2]int32) {
	edges = g.Edges(nil)
	idx := make(map[[2]int32]int32, len(edges))
	for i, e := range edges {
		idx[e] = int32(i)
	}
	b := NewBuilder(len(edges))
	for i, e := range edges {
		for _, end := range e {
			for _, w := range g.Neighbors(end) {
				other := [2]int32{end, w}
				if other[0] > other[1] {
					other[0], other[1] = other[1], other[0]
				}
				if j, ok := idx[other]; ok && int32(i) < j {
					b.AddEdge(int32(i), j)
				}
			}
		}
	}
	return b.Build(), edges
}

// BallBounded performs a BFS from v up to depth radius, appending every
// node at distance in [1, radius] to dst (excluding v itself) and returning
// it. If the ball exceeds maxSize nodes the traversal stops and ok is
// false; this is how callers enforce MPC local-space limits when collecting
// τ-hop neighborhoods (Lemma 17).
//
// scratch must be a caller-owned slice of length g.N() initialized to -1;
// it is restored to -1 before returning, so it can be reused across calls.
func BallBounded(g *Graph, v int32, radius, maxSize int, dst []int32, scratch []int32) (out []int32, ok bool) {
	out = dst[:0]
	if radius <= 0 {
		return out, true
	}
	scratch[v] = 0
	frontier := []int32{v}
	touched := []int32{v}
	ok = true
bfs:
	for depth := 1; depth <= radius && len(frontier) > 0; depth++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if scratch[w] >= 0 {
					continue
				}
				scratch[w] = int32(depth)
				touched = append(touched, w)
				out = append(out, w)
				next = append(next, w)
				if maxSize > 0 && len(out) > maxSize {
					ok = false
					break bfs
				}
			}
		}
		frontier = next
	}
	for _, u := range touched {
		scratch[u] = -1
	}
	if !ok {
		return out[:0], false
	}
	return out, true
}

// BallSize returns the number of nodes at distance [1, radius] from v —
// v's degree in G^radius — with ok false once that count exceeds
// maxBall > 0. It runs the bounded BFS PowerGraphPar runs per node, so
// ok is false exactly when PowerGraphPar(g, radius, maxBall) would fail on
// v's ball.
func BallSize(g *Graph, v int32, radius, maxBall int) (size int, ok bool) {
	ball, ok := newBallScratch(g.N(), maxBall).ball(g, v, radius, maxBall)
	return len(ball), ok
}

// PowerGraph returns G^radius restricted to nodes whose balls stay within
// maxBall (0 = unbounded): nodes u,v are adjacent iff their distance in G
// is in [1, radius]. Used to build the G^{4τ} instance whose coloring
// assigns PRG chunks in Lemma 10.
func PowerGraph(g *Graph, radius, maxBall int) (*Graph, error) {
	return PowerGraphPar(nil, g, radius, maxBall)
}

// PowerGraphPar is PowerGraph with construction scoped to r's workers
// (nil = process default), so the power-graph build inside a
// budget-scoped solve honors the solve's worker bound.
//
// Construction is streaming and chunked: each worker re-runs the
// deterministic bounded BFS in a counting pass and a fill pass, writing
// every ball straight into the output CSR — no intermediate edge list.
// With maxBall > 0 the per-worker visited set is O(maxBall), not O(n):
// the scratch footprint is bounded by the output row size, so a
// space-budgeted chunk assignment never allocates a full node array per
// worker. Only the unbounded maxBall = 0 case falls back to per-worker
// O(n) stamp arrays (its output rows can be O(n) anyway).
func PowerGraphPar(r *par.Runner, g *Graph, radius, maxBall int) (*Graph, error) {
	n := g.N()
	b := NewStreamBuilder(n)
	workers := r.Workers(n)
	scratches := make([]*ballScratch, workers)
	errs := make([]error, workers)
	pass := func(fill bool) error {
		r.ForChunkedWorker(n, func(w, lo, hi int) {
			sc := scratches[w]
			if sc == nil {
				sc = newBallScratch(n, maxBall)
				scratches[w] = sc
			}
			for i := lo; i < hi; i++ {
				if errs[w] != nil {
					return
				}
				v := int32(i)
				ball, ok := sc.ball(g, v, radius, maxBall)
				if !ok {
					errs[w] = fmt.Errorf("graph: ball of %d exceeds limit %d in G^%d", v, maxBall, radius)
					return
				}
				if fill {
					for _, u := range ball {
						b.FillArc(v, u)
					}
				} else {
					b.CountArcs(v, len(ball))
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(false); err != nil {
		return nil, err
	}
	b.BeginFill()
	if err := pass(true); err != nil {
		return nil, err
	}
	return b.Finish(r, false)
}

// ballScratch is one worker's reusable state for bounded-radius BFS. With
// a positive ball bound it tracks visited nodes in an open-addressing set
// of O(maxBall) slots; unbounded callers get the classic O(n) stamp
// array. Both variants produce identical deterministic traversals, and
// both record the entries a traversal fills so reset clears only those.
type ballScratch struct {
	stamp    []int32 // unbounded variant: node → -1 or visit marker
	keys     []int32 // bounded variant: open-addressing set, -1 = empty
	mask     uint32
	filled   []uint32 // indices of stamp or keys set since the last reset
	out      []int32  // ball accumulator, reused across calls
	frontier []int32
	next     []int32
}

func newBallScratch(n, maxBall int) *ballScratch {
	sc := &ballScratch{}
	if maxBall > 0 {
		size := uint32(8)
		for size < uint32(4*(maxBall+2)) {
			size <<= 1
		}
		sc.keys = make([]int32, size)
		for i := range sc.keys {
			sc.keys[i] = -1
		}
		sc.mask = size - 1
	} else {
		sc.stamp = make([]int32, n)
		for i := range sc.stamp {
			sc.stamp[i] = -1
		}
	}
	return sc
}

// visit marks v visited, reporting whether it was new.
func (sc *ballScratch) visit(v int32) bool {
	if sc.stamp != nil {
		if sc.stamp[v] >= 0 {
			return false
		}
		sc.stamp[v] = 0
		sc.filled = append(sc.filled, uint32(v))
		return true
	}
	h := uint32(v) * 2654435761 & sc.mask
	for {
		k := sc.keys[h]
		if k == v {
			return false
		}
		if k < 0 {
			sc.keys[h] = v
			sc.filled = append(sc.filled, h)
			return true
		}
		h = (h + 1) & sc.mask
	}
}

// reset clears the entries the last traversal filled: O(ball), not
// O(table), so reusing one scratch across every node costs no more than
// the traversals themselves.
func (sc *ballScratch) reset() {
	set := sc.keys
	if sc.stamp != nil {
		set = sc.stamp
	}
	for _, i := range sc.filled {
		set[i] = -1
	}
	sc.filled = sc.filled[:0]
}

// ball runs the deterministic bounded BFS from v, returning all nodes at
// distance [1, radius] (aliasing sc.out; valid until the next call). ok
// is false when the ball exceeds maxBall > 0.
func (sc *ballScratch) ball(g *Graph, v int32, radius, maxBall int) (out []int32, ok bool) {
	sc.out = sc.out[:0]
	if radius <= 0 {
		return sc.out, true
	}
	sc.visit(v)
	sc.frontier = append(sc.frontier[:0], v)
	ok = true
bfs:
	for depth := 1; depth <= radius && len(sc.frontier) > 0; depth++ {
		sc.next = sc.next[:0]
		for _, u := range sc.frontier {
			for _, w := range g.Neighbors(u) {
				if !sc.visit(w) {
					continue
				}
				sc.out = append(sc.out, w)
				sc.next = append(sc.next, w)
				if maxBall > 0 && len(sc.out) > maxBall {
					ok = false
					break bfs
				}
			}
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
	sc.reset()
	if !ok {
		return sc.out[:0], false
	}
	return sc.out, true
}

// Components labels connected components; comp[v] is the component id of v
// (ids are dense, assigned in order of smallest member), and sizes[i] is the
// size of component i.
func Components(g *Graph) (comp []int32, sizes []int32) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	next := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = next
		size := int32(1)
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = next
					size++
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
		next++
	}
	return comp, sizes
}

// CountEdgesAmong returns the number of edges of g with both endpoints in
// set (given as a sorted slice). It is m(N(v)) in the sparsity parameter of
// Definition 2. The implementation iterates the smaller-degree side of each
// candidate pair via merge intersection, costing O(Σ_{u∈set} d(u)).
func CountEdgesAmong(g *Graph, set []int32) int64 {
	if len(set) < 2 {
		return 0
	}
	inSet := func(x int32) bool {
		i := sort.Search(len(set), func(i int) bool { return set[i] >= x })
		return i < len(set) && set[i] == x
	}
	var cnt int64
	for _, u := range set {
		for _, w := range g.Neighbors(u) {
			if w > u && inSet(w) {
				cnt++
			}
		}
	}
	return cnt
}
