package prg

import (
	"testing"
)

// expandRef repacks the first nbits of p.Expand(seed) the way the naive
// ChunkedSource construction does: the reference for bit-identity.
func expandRef(p PRG, seed uint64, nbits int) []uint64 {
	b := p.Expand(seed)
	words := make([]uint64, (nbits+63)/64)
	for i := 0; i < nbits; i++ {
		words[i>>6] |= b.Take(1) << uint(i&63)
	}
	return words
}

func TestExpandIntoBitIdentical(t *testing.T) {
	// KWise k ≤ 4 steps its difference table in registers and k > 4
	// through the table slice; both must match Horner bit for bit.
	gens := []PRG{
		NewKWise(4, 6, 300),
		NewKWise(2, 5, 64),
		NewKWise(2, 5, 300),
		NewKWise(8, 5, 300),
		NewNisan(64, 3, 6),
		NewNisan(17, 4, 5),
	}
	for _, p := range gens {
		e := NewExpander(p)
		for _, nbits := range []int{1, 63, 64, 65, p.OutputBits()} {
			if nbits > p.OutputBits() {
				continue
			}
			dst := make([]uint64, (nbits+63)/64)
			for i := range dst {
				dst[i] = ^uint64(0) // ExpandInto must clear, not OR into, stale bits
			}
			for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 3 {
				e.ExpandInto(seed, dst, nbits)
				ref := expandRef(p, seed, nbits)
				for i := range ref {
					if dst[i] != ref[i] {
						t.Fatalf("%s seed=%d nbits=%d word %d: %x != %x",
							p.Name(), seed, nbits, i, dst[i], ref[i])
					}
				}
			}
		}
	}
}

func TestExpandIntoFallbackPath(t *testing.T) {
	tests := ParityTests(4, 2)
	p, err := FindBruteForce(3, 8, tests, 1, 3, 4096)
	if err != nil {
		t.Fatalf("brute force search failed: %v", err)
	}
	e := NewExpander(p)
	dst := make([]uint64, 1)
	for seed := uint64(0); seed < uint64(NumSeeds(p)); seed++ {
		e.ExpandInto(seed, dst, p.OutputBits())
		ref := expandRef(p, seed, p.OutputBits())
		if dst[0] != ref[0] {
			t.Fatalf("seed %d: %x != %x", seed, dst[0], ref[0])
		}
	}
}

func TestChunkedScratchMatchesNewChunkedSource(t *testing.T) {
	const numChunks, bitsPer = 7, 33
	p := NewKWise(4, 5, RequiredOutputBits(numChunks, bitsPer))
	chunkOf := make([]int32, 20)
	for v := range chunkOf {
		chunkOf[v] = int32(v % numChunks)
	}
	cs, err := NewChunkedScratch(p, chunkOf, numChunks, bitsPer)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the seed space twice in different orders to prove reseeding
	// leaves no residue.
	order := append(seedOrder(NumSeeds(p)), seedOrderRev(NumSeeds(p))...)
	for _, seed := range order {
		got := cs.Reseed(seed)
		want, err := NewChunkedSource(p, seed, chunkOf, numChunks, bitsPer)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(len(chunkOf)); v++ {
			g, w := got.BitsFor(v), want.BitsFor(v)
			for w.Remaining() > 0 {
				if a, b := g.Take(1), w.Take(1); a != b {
					t.Fatalf("seed=%d node=%d: chunk bits differ", seed, v)
				}
			}
			if g.Remaining() != 0 {
				t.Fatalf("seed=%d node=%d: leftover bits", seed, v)
			}
		}
	}
}

func TestExpandChunksIntoBitIdentical(t *testing.T) {
	// The sparse rewrite of an arbitrary chunk subset must reproduce
	// exactly the full expansion's bits on those ranges — for both
	// random-access generators, KWise on both stepping loops (registers
	// for k ≤ 4, the table slice for k > 4), at chunk widths that
	// straddle word boundaries or span several words, on top of a dirty
	// buffer left by another seed.
	const numChunks = 11
	subsets := [][]int32{
		{0},
		{numChunks - 1},
		{3, 7, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{5, 5, 2}, // duplicates allowed
	}
	for _, bitsPer := range []int{37, 130} {
		nbits := numChunks * bitsPer
		gens := []PRG{
			NewKWise(4, 5, nbits),
			NewKWise(2, 5, nbits),
			NewKWise(8, 5, nbits),
			NewNisan(64, 5, 5),
			NewNisan(23, 6, 4),
		}
		for _, p := range gens {
			if p.OutputBits() < nbits {
				t.Fatalf("%s too short for the test shape", p.Name())
			}
			e := NewExpander(p)
			dst := make([]uint64, (nbits+63)/64)
			for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 5 {
				ref := expandRef(p, seed, nbits)
				for _, chunks := range subsets {
					// Dirty the buffer with a different seed's full expansion.
					e.ExpandInto(seed^1, dst, nbits)
					e.ExpandChunksInto(seed, dst, chunks, bitsPer, nbits)
					dirty := expandRef(p, seed^1, nbits)
					listed := make([]bool, numChunks)
					for _, c := range chunks {
						listed[c] = true
					}
					for i := 0; i < nbits; i++ {
						want := dirty
						if listed[i/bitsPer] {
							want = ref
						}
						if dst[i>>6]>>uint(i&63)&1 != want[i>>6]>>uint(i&63)&1 {
							t.Fatalf("%s bitsPer=%d seed=%d chunks=%v: bit %d (chunk %d, listed=%v) differs",
								p.Name(), bitsPer, seed, chunks, i, i/bitsPer, listed[i/bitsPer])
						}
					}
				}
			}
		}
	}
}

func TestExpandChunksIntoFallbackPath(t *testing.T) {
	// Non-random-access generators fall back to a full expansion, which
	// covers all chunks by definition.
	tests := ParityTests(4, 2)
	p, err := FindBruteForce(3, 64, tests, 1, 2, 8192)
	if err != nil {
		t.Fatalf("brute force search failed: %v", err)
	}
	e := NewExpander(p)
	dst := []uint64{0xDEADBEEF}
	e.ExpandChunksInto(2, dst, []int32{1}, 16, 64)
	ref := expandRef(p, 2, 64)
	if dst[0] != ref[0] {
		t.Fatalf("fallback differs: %x != %x", dst[0], ref[0])
	}
}

func TestExpandChunksIntoBoundsPanic(t *testing.T) {
	p := NewKWise(4, 4, 128)
	e := NewExpander(p)
	dst := make([]uint64, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range chunk")
		}
	}()
	e.ExpandChunksInto(0, dst, []int32{4}, 32, 128)
}

func TestReseedChunksMatchesReseed(t *testing.T) {
	const numChunks, bitsPer = 9, 29
	for _, p := range []PRG{
		NewKWise(4, 5, RequiredOutputBits(numChunks, bitsPer)),
		NewNisan(64, 3, 5),
	} {
		chunkOf := make([]int32, 18)
		for v := range chunkOf {
			chunkOf[v] = int32(v % numChunks)
		}
		cs, err := NewChunkedScratch(p, chunkOf, numChunks, bitsPer)
		if err != nil {
			t.Fatal(err)
		}
		live := []int32{0, 4, 13, 17} // nodes, not chunks: chunkOf maps them
		liveChunks := make([]int32, len(live))
		for i, v := range live {
			liveChunks[i] = chunkOf[v]
		}
		for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 7 {
			// Dirty the scratch with another seed first.
			cs.Reseed(seed ^ 3)
			got := cs.ReseedChunks(seed, liveChunks)
			want, err := NewChunkedSource(p, seed, chunkOf, numChunks, bitsPer)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range live {
				g, w := got.BitsFor(v), want.BitsFor(v)
				for w.Remaining() > 0 {
					if g.Take(1) != w.Take(1) {
						t.Fatalf("%s seed=%d node=%d: live chunk bits differ", p.Name(), seed, v)
					}
				}
			}
		}
	}
}

func TestChunkedScratchRejectsShortGenerator(t *testing.T) {
	p := NewKWise(4, 5, 64)
	if _, err := NewChunkedScratch(p, []int32{0, 1}, 2, 64); err == nil {
		t.Fatal("expected output-length error")
	}
}

func seedOrder(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func seedOrderRev(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(n - 1 - i)
	}
	return out
}

func BenchmarkExpandNaive(b *testing.B) {
	p := NewKWise(4, 8, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Expand(uint64(i) & 255)
	}
}

func BenchmarkExpandInto(b *testing.B) {
	p := NewKWise(4, 8, 4096)
	e := NewExpander(p)
	dst := make([]uint64, 4096/64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ExpandInto(uint64(i)&255, dst, 4096)
	}
}

// TestChunkedScratchRetarget checks that a retargeted scratch is
// bit-identical to a freshly constructed one, across generator families
// and layouts, and that retargeting to an unchanged layout is accepted.
func TestChunkedScratchRetarget(t *testing.T) {
	kw := NewKWise(4, 6, 40*8)
	ni := NewNisan(64, 4, 6)
	chunkA := make([]int32, 40)
	for i := range chunkA {
		chunkA[i] = int32(i)
	}
	chunkB := make([]int32, 25)
	for i := range chunkB {
		chunkB[i] = int32(i % 5)
	}
	cs, err := NewChunkedScratch(kw, chunkA, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	check := func(p PRG, chunkOf []int32, numChunks, bitsPer int) {
		t.Helper()
		if err := cs.Retarget(p, chunkOf, numChunks, bitsPer); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewChunkedScratch(p, chunkOf, numChunks, bitsPer)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 8; seed++ {
			a := cs.Reseed(seed)
			b := fresh.Reseed(seed)
			for _, v := range chunkOf[:min(4, len(chunkOf))] {
				ba, bb := a.BitsFor(v), b.BitsFor(v)
				for k := 0; k < bitsPer; k++ {
					if ba.Take(1) != bb.Take(1) {
						t.Fatalf("retargeted scratch differs at seed %d node %d bit %d", seed, v, k)
					}
				}
			}
		}
	}
	check(kw, chunkA, 40, 8) // no-op retarget
	check(ni, chunkA, 40, 8) // new generator, same layout
	check(kw, chunkB, 5, 16) // smaller layout, reused buffer
	check(kw, chunkA, 40, 8) // back to the original
	if err := cs.Retarget(kw, chunkA, 4000, 64); err == nil {
		t.Fatal("Retarget accepted a layout exceeding the generator's output")
	}
}
