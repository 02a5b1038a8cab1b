package prg

import "testing"

// FuzzExpandChunksInto checks KWise chunk expansion against the Horner
// reference KWise.Expand: every bit of a listed chunk must equal the
// reference, and every other bit of dst — unlisted chunks and the tail
// past the last chunk — must keep its prior value. Chunk lists carry
// duplicates and widths that straddle words; the expander first serves a
// generator of another k at another seed, so state carried across
// Retarget (the k ≤ 4 difference polynomials) is exercised too.
func FuzzExpandChunksInto(f *testing.F) {
	f.Add(uint64(0), uint8(3), uint16(37), uint8(11), uint8(5), uint64(0), []byte{3, 7, 8, 3})
	f.Add(uint64(9), uint8(4), uint16(64), uint8(4), uint8(0), ^uint64(0), []byte{0, 1, 2, 3})
	f.Add(uint64(1<<40), uint8(0), uint16(1), uint8(70), uint8(63), uint64(0xA5A5A5A5A5A5A5A5), []byte{69, 0, 69, 5})
	f.Add(uint64(77), uint8(1), uint16(130), uint8(2), uint8(1), uint64(0x0123456789ABCDEF), []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, kSel uint8, bitsPerIn uint16, chunksIn uint8, tailIn uint8, fill uint64, list []byte) {
		ks := []int{1, 2, 3, 4, 8}
		k := ks[int(kSel)%len(ks)]
		bitsPer := 1 + int(bitsPerIn)%200
		numChunks := 1 + int(chunksIn)%80
		nbits := numChunks*bitsPer + int(tailIn)%70
		if len(list) > 256 {
			list = list[:256]
		}
		chunks := make([]int32, len(list))
		listed := make([]bool, numChunks)
		for i, b := range list {
			chunks[i] = int32(int(b) % numChunks)
			listed[chunks[i]] = true
		}
		p := NewKWise(k, 8, nbits)
		ref := expandRef(p, seed, nbits)

		other := NewKWise(ks[(int(kSel)+1)%len(ks)], 8, nbits)
		e := NewExpander(other)
		dst := make([]uint64, (nbits+63)/64)
		e.ExpandChunksInto(seed^1, dst, chunks, bitsPer, nbits)
		e.Retarget(p)
		for i := range dst {
			dst[i] = fill
		}
		e.ExpandChunksInto(seed, dst, chunks, bitsPer, nbits)
		for i := 0; i < nbits; i++ {
			want := fill >> uint(i&63) & 1
			if c := i / bitsPer; c < numChunks && listed[c] {
				want = ref[i>>6] >> uint(i&63) & 1
			}
			if got := dst[i>>6] >> uint(i&63) & 1; got != want {
				t.Fatalf("k=%d bitsPer=%d chunks=%v: bit %d = %d, want %d", k, bitsPer, chunks, i, got, want)
			}
		}
		// Bits past nbits in the last word are untouched as well.
		if r := nbits & 63; r != 0 && dst[len(dst)-1]>>uint(r) != fill>>uint(r) {
			t.Fatalf("k=%d: bits past %d changed", k, nbits)
		}
	})
}
