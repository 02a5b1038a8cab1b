package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"parcolor"
)

// Cache-key canonicalization. The content address of a request is a
// SHA-256 over a canonical serialization of (graph content, palette mode,
// result-affecting solve options):
//
//   - Explicit edge lists are addressed by the *built* graph's CSR — the
//     Builder sorts adjacency, drops self-loops and deduplicates, so any
//     edge ordering, orientation or duplication of the same simple graph
//     hashes identically. Each undirected edge enters once as (u,v), u<v,
//     in ascending order.
//   - Named-generator specs are addressed by (generator, n, seed): the
//     generators are deterministic functions of their seed, so the spec
//     *is* the content, and hits skip generation as well as solving.
//     A generator spec and its materialized edge list hash differently —
//     cheaper keys were preferred over cross-form unification.
//   - Options enter the key only if they can change the output bits:
//     Algorithm, Seed, SeedBits, UseNisan, Bitwise, Bins, MidDegree,
//     LowDeg, DegreeRanges, DegreeShard. Workers and SkipVerify are
//     documented result-invariant (they change cost, never the coloring)
//     and are deliberately excluded, so e.g. traffic mixing worker
//     budgets still shares cache lines.

// keyVersion guards the serialization: bump it whenever the canonical
// form changes so stale keys can never alias new ones.
const keyVersion = "parcolor/serve/v1\n"

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// writeOptions folds the result-affecting option fields into h.
func writeOptions(h hash.Hash, o parcolor.Options) {
	writeU64(h, uint64(o.Algorithm))
	writeU64(h, o.Seed)
	writeU64(h, uint64(o.SeedBits))
	writeBool(h, o.UseNisan)
	writeBool(h, o.Bitwise)
	writeU64(h, uint64(o.Bins))
	writeU64(h, uint64(o.MidDegree))
	writeU64(h, uint64(o.LowDeg))
	writeBool(h, o.DegreeRanges)
	writeBool(h, o.DegreeShard)
}

// KeyForGraph returns the content address of solving the built graph g
// under paletteMode and o.
func KeyForGraph(g *parcolor.Graph, paletteMode string, o parcolor.Options) string {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte("edges\x00"))
	h.Write([]byte(paletteMode))
	h.Write([]byte{0})
	writeOptions(h, o)
	writeU64(h, uint64(g.N()))
	writeU64(h, uint64(g.M()))
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				writeU64(h, uint64(uint32(u))<<32|uint64(uint32(v)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KeyForGenerator returns the content address of solving the named
// deterministic generator workload under paletteMode and o.
func KeyForGenerator(generator string, n int, seed uint64, paletteMode string, o parcolor.Options) string {
	h := sha256.New()
	h.Write([]byte(keyVersion))
	h.Write([]byte("gen\x00"))
	h.Write([]byte(generator))
	h.Write([]byte{0})
	h.Write([]byte(paletteMode))
	h.Write([]byte{0})
	writeOptions(h, o)
	writeU64(h, uint64(n))
	writeU64(h, seed)
	return hex.EncodeToString(h.Sum(nil))
}
