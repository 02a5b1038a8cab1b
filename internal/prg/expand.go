package prg

import (
	"fmt"

	"parcolor/internal/hashfam"
	"parcolor/internal/rng"
)

// This file implements the allocation-free expansion path of the
// incremental seed-scoring engine: an Expander re-expands a generator into
// caller-owned storage, and a ChunkedScratch turns that into a reseedable
// ChunkedSource. Together they let the Lemma 10 scorer walk an entire seed
// space while reusing one buffer set per worker, where the naive path
// (Expand + NewChunkedSource) allocates a fresh string per seed.
//
// Both paths are bit-identical by construction and by test: the seed chosen
// by the method of conditional expectations must not depend on which path
// scored it.

// Expander re-expands a PRG into caller-owned storage without per-seed
// allocation. It carries the generator-specific scratch (polynomial
// coefficients for KWise, the block tree for Nisan) and is therefore NOT
// safe for concurrent use; give each worker its own Expander.
type Expander struct {
	p     PRG
	buf   []uint64
	poly  hashfam.Poly
	cubic hashfam.CubicDiffs // poly's difference polynomials when cubicOK
	// cubicOK reports poly.K() ≤ 4, where stepKWise seeds each run from
	// cubic instead of a PolyStepper.
	cubicOK bool
	diffs   []uint64 // PolyStepper difference table, reused across runs
}

// NewExpander prepares an allocation-free expander for p.
func NewExpander(p PRG) *Expander {
	return &Expander{p: p}
}

// Retarget rebinds the expander to a different generator, keeping the
// scratch storage (coefficient buffer, difference tables) for reuse — the
// cross-solve pooling path: a worker's expander outlives any single
// (step, generator) pairing.
func (e *Expander) Retarget(p PRG) { e.p = p }

// grow returns a scratch slice of n words, reusing prior capacity.
func (e *Expander) grow(n int) []uint64 {
	if cap(e.buf) < n {
		e.buf = make([]uint64, n)
	}
	return e.buf[:n]
}

// ExpandInto writes the first nbits bits of p's expansion at seed into dst,
// in rng.Bits storage layout (bit i at dst[i>>6], position i&63) — the same
// layout Expand produces, verified bit-for-bit by tests. dst must hold at
// least ⌈nbits/64⌉ words; nbits must not exceed the generator's OutputBits.
// KWise and Nisan take dedicated zero-allocation paths; any other generator
// falls back to Expand plus a copy.
func (e *Expander) ExpandInto(seed uint64, dst []uint64, nbits int) {
	if nbits < 0 || nbits > e.p.OutputBits() {
		panic(fmt.Sprintf("prg: ExpandInto(%d bits) outside %s's %d output bits",
			nbits, e.p.Name(), e.p.OutputBits()))
	}
	words := (nbits + 63) / 64
	if words > len(dst) {
		panic("prg: ExpandInto destination too short")
	}
	for i := range dst[:words] {
		dst[i] = 0
	}
	switch p := e.p.(type) {
	case *KWise:
		e.expandKWise(p, seed, dst, nbits)
	case *Nisan:
		e.expandNisan(p, seed, dst, nbits)
	default:
		b := e.p.Expand(seed)
		for i := 0; i < nbits; i++ {
			dst[i>>6] |= b.Take(1) << uint(i&63)
		}
	}
}

// ExpandChunksInto writes only the listed chunks' bit ranges of p's
// expansion at seed into dst (chunk c covers bits [c·bitsPer,
// (c+1)·bitsPer)), leaving all other bit positions untouched — callers
// must read only the listed chunks until the next full expansion.
// Duplicate chunk ids are allowed. The written bits are identical to the
// same positions of ExpandInto(seed, dst, nbits); nbits bounds the
// addressable range as there. KWise output bits are random-access (one
// polynomial evaluation per bit) and Nisan leaf blocks are reachable by an
// O(levels) hash walk, so for both the cost is proportional to the
// requested chunks, not the generator's full output — the saving the
// derandomized Luby rounds live off once most nodes are decided. Other
// generators fall back to a full ExpandInto.
func (e *Expander) ExpandChunksInto(seed uint64, dst []uint64, chunks []int32, bitsPer, nbits int) {
	if nbits < 0 || nbits > e.p.OutputBits() {
		panic(fmt.Sprintf("prg: ExpandChunksInto(%d bits) outside %s's %d output bits",
			nbits, e.p.Name(), e.p.OutputBits()))
	}
	if (nbits+63)/64 > len(dst) {
		panic("prg: ExpandChunksInto destination too short")
	}
	for _, c := range chunks {
		if c < 0 || (int(c)+1)*bitsPer > nbits {
			panic(fmt.Sprintf("prg: ExpandChunksInto chunk %d outside %d bits", c, nbits))
		}
	}
	switch p := e.p.(type) {
	case *KWise:
		e.expandKWiseChunks(p, seed, dst, chunks, bitsPer)
	case *Nisan:
		e.expandNisanChunks(p, seed, dst, chunks, bitsPer)
	default:
		e.ExpandInto(seed, dst, nbits)
	}
}

// expandKWiseChunks evaluates exactly the requested bit positions: KWise
// bit i is the LSB of the seed polynomial at i+1, independent of every
// other position, so each chunk is one stepKWise run over its range.
func (e *Expander) expandKWiseChunks(p *KWise, seed uint64, dst []uint64, chunks []int32, bitsPer int) {
	e.seedPoly(p, seed)
	for _, c := range chunks {
		e.stepKWise(dst, int(c)*bitsPer, (int(c)+1)*bitsPer)
	}
}

// seedPoly draws the seed's polynomial coefficients into the reused
// Poly, exactly as KWise.Expand derives them, and for k ≤ 4 derives the
// polynomial's difference polynomials once for every chunk of the seed.
func (e *Expander) seedPoly(p *KWise, seed uint64) {
	raw := e.grow(p.k)
	s := rng.New(rng.Hash2(0x5EED<<32|seed, uint64(p.k)))
	for i := range raw {
		raw[i] = s.Uint64()
	}
	e.poly.SetCoef(raw)
	e.cubic, e.cubicOK = e.poly.CubicDiffs()
}

// stepKWise writes KWise output bits [lo, hi) of the seeded polynomial
// into dst, leaving every other bit position untouched. The run is one
// contiguous sequence of points, so the polynomial advances by finite
// differences (k−1 modular additions per bit instead of Horner's
// multiplications), and bits accumulate into a register word merged into
// dst once per destination word.
//
// For k ≤ 4 — production's constant k=4 — the difference table lives in
// four locals, seeded at the run's first point from the per-seed
// difference polynomials seedPoly derived (six modular multiplications
// per run instead of a PolyStepper's k Horner evaluations). A
// lower-degree polynomial's table is padded with zero differences, and
// adding a zero difference leaves a canonical residue unchanged, so one
// loop computes every such k bit-identically. Larger k steps the table
// slice through PolyStepper.Advance.
func (e *Expander) stepKWise(dst []uint64, lo, hi int) {
	if e.cubicOK {
		d0, d1, d2, d3 := e.cubic.At(uint64(lo) + 1)
		for start := lo; start < hi; {
			end := min((start|63)+1, hi)
			var w uint64
			for n := start; n < end; n++ {
				w = w>>1 | d0<<63
				d0, d1, d2 = addmod61(d0, d1), addmod61(d1, d2), addmod61(d2, d3)
			}
			storeRun(dst, start, end, w)
			start = end
		}
		return
	}
	st := e.poly.Stepper(uint64(lo)+1, e.diffs)
	e.diffs = st.Diffs()
	for start := lo; start < hi; {
		end := min((start|63)+1, hi)
		var w uint64
		for n := start; n < end; n++ {
			w = w>>1 | st.Value()<<63
			st.Advance()
		}
		storeRun(dst, start, end, w)
		start = end
	}
}

// storeRun writes a run's bits into positions [start, end) of dst, all
// inside one word, keeping the word's other bits: one read-modify-write
// per destination word. The run's loop shifted each bit in from the top,
// so w holds position end−1 at bit 63 and the run's bits in its top
// end−start positions.
func storeRun(dst []uint64, start, end int, w uint64) {
	shift := uint(64-(end-start)) & 63
	mask := ^uint64(0) >> shift << uint(start&63)
	wi := start >> 6
	dst[wi] = dst[wi]&^mask | w>>shift<<uint(start&63)
}

// addmod61 returns a+b mod 2^61−1 for canonical residues a, b: the
// finite-difference step of hashfam.PolyStepper.Advance, inlined into the
// register loop.
func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= hashfam.MersennePrime61 {
		s -= hashfam.MersennePrime61
	}
	return s
}

// expandNisanChunks reconstructs only the leaf blocks covering the
// requested chunks. Leaf b's value is x0 pushed through the level hashes
// selected by b's bits (bit L−1−lvl chooses whether level lvl hashed), the
// random-access form of the in-place doubling expandNisan performs.
func (e *Expander) expandNisanChunks(p *Nisan, seed uint64, dst []uint64, chunks []int32, bitsPer int) {
	s := rng.New(rng.Hash2(0x417A<<32|seed, uint64(p.levels)))
	x0 := s.Uint64()
	if p.w < 64 {
		x0 &= (1 << uint(p.w)) - 1
	}
	mult := e.grow(p.levels)
	for i := range mult {
		mult[i] = s.Uint64() | 1
	}
	block := func(b int) uint64 {
		x := x0
		for lvl := 0; lvl < p.levels; lvl++ {
			if b>>uint(p.levels-1-lvl)&1 == 1 {
				x = mult[lvl] * x
				x ^= x >> 29
				if p.w < 64 {
					x &= (1 << uint(p.w)) - 1
				}
			}
		}
		return x
	}
	for _, c := range chunks {
		lo, hi := int(c)*bitsPer, (int(c)+1)*bitsPer
		for blk := lo / p.w; blk*p.w < hi; blk++ {
			x := block(blk)
			base := blk * p.w
			// Clamp to the chunk's range, then write the block's bits with
			// one read-modify-write per destination word.
			j0, j1 := 0, p.w
			if base+j0 < lo {
				j0 = lo - base
			}
			if base+j1 > hi {
				j1 = hi - base
			}
			for j := j0; j < j1; {
				pos := base + j
				wi := pos >> 6
				end := j + (64 - pos&63)
				if end > j1 {
					end = j1
				}
				w := dst[wi]
				for ; j < end; j++ {
					pos = base + j
					mask := uint64(1) << uint(pos&63)
					if x>>uint(j)&1 == 1 {
						w |= mask
					} else {
						w &^= mask
					}
				}
				dst[wi] = w
			}
		}
	}
}

// expandKWise mirrors KWise.Expand with reused coefficient storage,
// walking the whole output as one stepKWise run (KWise.Expand itself
// stays per-bit Horner: it is the independent reference the expander is
// differentially tested against).
func (e *Expander) expandKWise(p *KWise, seed uint64, dst []uint64, nbits int) {
	e.seedPoly(p, seed)
	e.stepKWise(dst, 0, nbits)
}

// expandNisan mirrors Nisan.Expand, building the recursion tree in place:
// blocks double bottom-up inside one reused buffer (writing positions
// 2i, 2i+1 while scanning i downward never clobbers an unread block).
func (e *Expander) expandNisan(p *Nisan, seed uint64, dst []uint64, nbits int) {
	s := rng.New(rng.Hash2(0x417A<<32|seed, uint64(p.levels)))
	x0 := s.Uint64()
	if p.w < 64 {
		x0 &= (1 << uint(p.w)) - 1
	}
	nBlocks := 1 << p.levels
	buf := e.grow(p.levels + nBlocks)
	mult := buf[:p.levels]
	blocks := buf[p.levels:]
	for i := range mult {
		mult[i] = s.Uint64() | 1
	}
	blocks[0] = x0
	m := 1
	for lvl := 0; lvl < p.levels; lvl++ {
		a := mult[lvl]
		for i := m - 1; i >= 0; i-- {
			b := blocks[i]
			hb := a * b
			hb = hb ^ (hb >> 29)
			if p.w < 64 {
				hb &= (1 << uint(p.w)) - 1
			}
			blocks[2*i], blocks[2*i+1] = b, hb
		}
		m <<= 1
	}
	pos := 0
	for i := 0; i < m && pos < nbits; i++ {
		b := blocks[i]
		for j := 0; j < p.w && pos < nbits; j++ {
			if b>>uint(j)&1 == 1 {
				dst[pos>>6] |= 1 << uint(pos&63)
			}
			pos++
		}
	}
}

// ChunkedScratch is a reseedable ChunkedSource: the chunk layout and the
// expansion buffer are validated and allocated once, then Reseed re-expands
// in place for each candidate seed. One ChunkedScratch per worker; the
// returned source is valid until the next Reseed.
type ChunkedScratch struct {
	src  ChunkedSource
	exp  *Expander
	need int
}

// NewChunkedScratch validates the layout (as NewChunkedSource does) and
// allocates the reusable buffers.
func NewChunkedScratch(p PRG, chunkOf []int32, numChunks, bitsPer int) (*ChunkedScratch, error) {
	if need := numChunks * bitsPer; p.OutputBits() < need {
		return nil, fmt.Errorf("prg: %s outputs %d bits, need %d (%d chunks × %d)",
			p.Name(), p.OutputBits(), need, numChunks, bitsPer)
	}
	need := numChunks * bitsPer
	return &ChunkedScratch{
		src: ChunkedSource{
			words:    make([]uint64, (need+63)/64),
			bitsPer:  bitsPer,
			chunkOf:  chunkOf,
			numChunk: numChunks,
		},
		exp:  NewExpander(p),
		need: need,
	}, nil
}

// Reseed re-expands the generator at seed into the reused buffer and
// returns the chunk view, bit-identical to NewChunkedSource(p, seed, …).
func (cs *ChunkedScratch) Reseed(seed uint64) *ChunkedSource {
	cs.exp.ExpandInto(seed, cs.src.words, cs.need)
	return &cs.src
}

// Retarget rebinds the scratch to a new (generator, chunk layout) pair,
// validating as NewChunkedScratch does but reusing the expansion buffer
// and expander scratch whenever capacities allow. It is a cheap no-op when
// the layout is unchanged, so pooled per-worker scratch can be retargeted
// unconditionally on checkout.
func (cs *ChunkedScratch) Retarget(p PRG, chunkOf []int32, numChunks, bitsPer int) error {
	need := numChunks * bitsPer
	if p.OutputBits() < need {
		return fmt.Errorf("prg: %s outputs %d bits, need %d (%d chunks × %d)",
			p.Name(), p.OutputBits(), need, numChunks, bitsPer)
	}
	if cs.exp.p == p && len(chunkOf) > 0 && len(cs.src.chunkOf) == len(chunkOf) &&
		&cs.src.chunkOf[0] == &chunkOf[0] &&
		cs.src.numChunk == numChunks && cs.src.bitsPer == bitsPer {
		return nil
	}
	words := (need + 63) / 64
	if cap(cs.src.words) < words {
		cs.src.words = make([]uint64, words)
	} else {
		cs.src.words = cs.src.words[:words]
	}
	cs.src.bitsPer = bitsPer
	cs.src.chunkOf = chunkOf
	cs.src.numChunk = numChunks
	cs.exp.Retarget(p)
	cs.need = need
	return nil
}

// ReseedChunks re-expands only the listed chunks' bit ranges at seed and
// returns the chunk view. The returned source is valid for exactly those
// chunks — other chunks' bits are stale from earlier seeds — and on the
// listed chunks it is bit-identical to Reseed. Seed-selection loops over a
// shrinking participant set use this to pay expansion cost proportional to
// the live chunks instead of the generator's full output.
func (cs *ChunkedScratch) ReseedChunks(seed uint64, chunks []int32) *ChunkedSource {
	cs.exp.ExpandChunksInto(seed, cs.src.words, chunks, cs.src.bitsPer, cs.need)
	return &cs.src
}
