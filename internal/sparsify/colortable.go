package sparsify

import (
	"parcolor/internal/d1lc"
	"parcolor/internal/hashfam"
)

// colorTable is the color hash under one seed, tabulated over a span of
// colors: a color's bin does not depend on the node, so the color-seed
// search bins each color of the span once per seed instead of once per
// palette entry. Colors outside the span are hashed directly, so every
// answer equals hashfam.Poly.Bin(c+1, bins), the reference.
type colorTable struct {
	h    hashfam.Poly
	bins int
	lo   int32
	// bin[i] is the bin of color lo+i.
	bin []uint8
	// pre[b*(len(bin)+1)+i] counts the colors in [lo, lo+i) whose bin is b.
	pre []int32
}

// newColorTable allocates a table over the colors [lo, lo+width) for the
// given number of color bins; reset fills it. More than 256 bins do not
// fit a byte, so such a table stays empty and hashes every color directly.
func newColorTable(bins int, lo int32, width int) *colorTable {
	if bins > 256 {
		width = 0
	}
	return &colorTable{
		bins: bins,
		lo:   lo,
		bin:  make([]uint8, width),
		pre:  make([]int32, bins*(width+1)),
	}
}

// colorSpan returns the table span for the palettes the color-seed search
// counts: those of high-degree nodes in restricted node bins 0..Bins−2.
// The span starts at their smallest color lo and has width
// min(hi−lo+1, ⌈Σ|p(v)|/bins⌉) for their largest color hi, so the prefix
// rows never outgrow the palettes' own storage; colors past the cap are
// hashed directly. No counted entries give width 0.
func colorSpan(in *d1lc.Instance, part *Partition, highDeg []int32, bins int) (lo int32, width int) {
	var hi int32
	total := 0
	for _, v := range highDeg {
		p := in.Palettes[v]
		if b := part.NodeBin[v]; b < 0 || int(b) == part.Bins-1 || len(p) == 0 {
			continue
		}
		if total == 0 || p[0] < lo {
			lo = p[0]
		}
		if total == 0 || p[len(p)-1] > hi {
			hi = p[len(p)-1]
		}
		total += len(p)
	}
	if total == 0 {
		return 0, 0
	}
	return lo, int(min(int64(hi)-int64(lo)+1, int64((total+bins-1)/bins)))
}

// reset tabulates the color hash of seed: one hash evaluation per color
// of the span, then one prefix row per bin.
func (t *colorTable) reset(seed uint64) {
	t.h.SetCoef(seedWords(seed, 2))
	for i := range t.bin {
		t.bin[i] = uint8(t.h.Bin(uint64(t.lo+int32(i))+1, t.bins))
	}
	stride := len(t.bin) + 1
	for b := 0; b < t.bins; b++ {
		row := t.pre[b*stride : (b+1)*stride]
		n := int32(0)
		for i, cb := range t.bin {
			if int(cb) == b {
				n++
			}
			row[i+1] = n
		}
	}
}

// colorBin returns c's bin: a table lookup inside the span, a direct hash
// evaluation outside it.
func (t *colorTable) colorBin(c int32) int {
	if i := int64(c) - int64(t.lo); uint64(i) < uint64(len(t.bin)) {
		return int(t.bin[i])
	}
	return t.h.Bin(uint64(c)+1, t.bins)
}

// count returns how many colors of the sorted, duplicate-free palette p
// land in bin b. A palette that is one contiguous run inside the span
// costs two prefix lookups; any other palette costs one colorBin per entry.
func (t *colorTable) count(p []int32, b int) int {
	if len(p) == 0 {
		return 0
	}
	first, last := int64(p[0])-int64(t.lo), int64(p[len(p)-1])-int64(t.lo)
	if last-first == int64(len(p)-1) && first >= 0 && last < int64(len(t.bin)) {
		row := t.pre[b*(len(t.bin)+1):]
		return int(row[last+1] - row[first])
	}
	n := 0
	for _, c := range p {
		if t.colorBin(c) == b {
			n++
		}
	}
	return n
}
