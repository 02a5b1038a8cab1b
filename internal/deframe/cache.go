package deframe

import (
	"sync"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// Cache holds the derandomizer's reusable allocations across steps — and,
// when owned by a long-lived Solver, across whole solves: the seed
// engine's contribution tables and per-worker scratch, run states, and
// self-reduction arenas. Everything inside is sync.Pool-backed, so a
// Cache is safe for concurrent solves and sheds memory under GC pressure.
type Cache struct {
	seeds  condexp.Cache[seedScratch]
	states hknt.StatePool
	reduce sync.Pool // of *d1lc.ReduceArena

	// chunks memoizes chunkAssignment per (graph identity, radius, edge
	// budget) — but only for graphs the caller declared reusable
	// (Options.MemoGraph), so per-solve throwaway graphs never enter it:
	// graphs are immutable and the assignment is deterministic, so
	// repeated solves of the same instance skip the power-graph
	// construction — the single largest allocation of a warm solve. The
	// map is bounded (cleared when full) and holding the *Graph key keeps
	// it alive, so a recycled address can never alias a different graph.
	chunksMu sync.Mutex
	chunks   map[chunkKey]chunkVal
}

type chunkKey struct {
	g                *graph.Graph
	radius, maxEdges int
}

type chunkVal struct {
	chunkOf   []int32
	numChunks int
	mode      string
}

// maxChunkMemo bounds the memo; when full it is reset wholesale (the
// entries are pure caches, recomputable at the cost of one PowerGraph).
// The bound is deliberately small: each key pins its graph alive, and the
// win case is repeated solves of the same instance (whose top-level graph
// pointer recurs), while recursion residuals and sparsify sub-instances
// are fresh graphs every solve — those churn through the memo and must
// not accumulate.
const maxChunkMemo = 8

// getChunks returns the (possibly memoized) chunk assignment for g,
// constructing — when the memo misses — on r's workers so the solve's
// budget bounds the power-graph build. Only memoize-marked graphs (the
// caller's reusable root) touch the memo. The returned slice is shared
// and must be treated as read-only — every consumer only indexes it.
func (c *Cache) getChunks(r *par.Runner, g *graph.Graph, radius, maxEdges int, memoize bool) ([]int32, int, string) {
	if !memoize {
		return chunkAssignment(r, g, radius, maxEdges)
	}
	key := chunkKey{g: g, radius: radius, maxEdges: maxEdges}
	c.chunksMu.Lock()
	if v, ok := c.chunks[key]; ok {
		c.chunksMu.Unlock()
		return v.chunkOf, v.numChunks, v.mode
	}
	c.chunksMu.Unlock()
	chunkOf, numChunks, mode := chunkAssignment(r, g, radius, maxEdges)
	c.chunksMu.Lock()
	if c.chunks == nil || len(c.chunks) >= maxChunkMemo {
		c.chunks = make(map[chunkKey]chunkVal, maxChunkMemo)
	}
	c.chunks[key] = chunkVal{chunkOf: chunkOf, numChunks: numChunks, mode: mode}
	c.chunksMu.Unlock()
	return chunkOf, numChunks, mode
}

// NewCache returns an empty cache. One Cache may serve any number of
// sequential or concurrent Runs.
func NewCache() *Cache { return &Cache{} }

// getReduceArena checks a self-reduction arena out of the cache. Each
// recursion level holds its own arena for the lifetime of its residual
// instance — checked out before ReduceUncolored, returned only after the
// recursive solve and the coloring write-back complete, so at most
// MaxDepth arenas are live at once.
func (c *Cache) getReduceArena() *d1lc.ReduceArena {
	if a, _ := c.reduce.Get().(*d1lc.ReduceArena); a != nil {
		return a
	}
	return d1lc.NewReduceArena()
}
