package sparsify

import (
	"math"
	"slices"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hashfam"
)

// refPartition is the reference LowSpacePartition: the same node bins as
// Compute, but a color-seed search, property enforcement and palette
// restriction that call hashfam.Poly.Bin once per palette entry, and d′
// recounted from scratch.
type refPartition struct {
	nodeBin    []int32
	sameBinDeg []int32
	colorSeed  uint64
	seedsTried int
	movedToMid int
	colorBin   func(c int32) int
}

func referenceCompute(in *d1lc.Instance, o Options) *refPartition {
	g := in.G
	n := g.N()
	o = o.withDefaults(n)
	bins := o.Bins
	r := &refPartition{nodeBin: make([]int32, n)}
	var highDeg []int32
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) <= o.MidDegree {
			r.nodeBin[v] = -1
		} else {
			highDeg = append(highDeg, v)
		}
	}
	degreeOK := func(v int32, dPrime int) bool {
		return float64(dPrime) < math.Max(2*float64(g.Degree(v))/float64(bins), 1)
	}
	sameBin := func(nodeBin []int32, v int32) int {
		d := 0
		for _, u := range g.Neighbors(v) {
			if nodeBin[u] == nodeBin[v] {
				d++
			}
		}
		return d
	}
	setNodeBins := func(seed uint64, nodeBin []int32) {
		h := hashfam.NewPoly(seedWords(seed, 2))
		for _, v := range highDeg {
			nodeBin[v] = int32(h.Bin(uint64(v)+1, bins))
		}
	}
	switch o.Strategy {
	case GF2CondExp:
		scratch := &Partition{Bins: bins, NodeBin: r.nodeBin}
		assignGF2(scratch, g, highDeg, o)
		bins = scratch.Bins
	case RandomOnce:
		setNodeBins(0, r.nodeBin)
	default:
		bestSeed, bestViol := uint64(0), math.MaxInt
		trial := make([]int32, n)
		for seed := uint64(0); seed < uint64(o.MaxSeedTries); seed++ {
			r.seedsTried++
			copy(trial, r.nodeBin)
			setNodeBins(seed, trial)
			viol := 0
			for _, v := range highDeg {
				if !degreeOK(v, sameBin(trial, v)) {
					viol++
				}
			}
			if viol < bestViol {
				bestSeed, bestViol = seed, viol
				if viol == 0 {
					break
				}
			}
		}
		setNodeBins(bestSeed, r.nodeBin)
	}

	colorBins := bins - 1
	restricted := func(v int32) bool { b := r.nodeBin[v]; return b >= 0 && int(b) < colorBins }
	pre := make([]int32, n)
	for _, v := range highDeg {
		if r.nodeBin[v] >= 0 {
			pre[v] = int32(sameBin(r.nodeBin, v))
		}
	}
	binFn := func(seed uint64) func(int32) int {
		h := hashfam.NewPoly(seedWords(seed, 2))
		return func(c int32) int { return h.Bin(uint64(c)+1, colorBins) }
	}
	pPrime := func(colorBin func(int32) int, v int32) int {
		k := 0
		for _, c := range in.Palettes[v] {
			if colorBin(c) == int(r.nodeBin[v]) {
				k++
			}
		}
		return k
	}
	bestViol := math.MaxInt
	for seed := uint64(0); seed < uint64(o.MaxSeedTries); seed++ {
		r.seedsTried++
		colorBin := binFn(seed)
		viol := 0
		for _, v := range highDeg {
			if restricted(v) && int(pre[v]) >= pPrime(colorBin, v) {
				viol++
			}
		}
		if viol < bestViol {
			r.colorSeed, bestViol = seed, viol
			if viol == 0 {
				break
			}
		}
	}
	r.colorBin = binFn(r.colorSeed)

	var moved []int32
	for _, v := range highDeg {
		if r.nodeBin[v] < 0 {
			continue
		}
		pLen := len(in.Palettes[v])
		if restricted(v) {
			pLen = pPrime(r.colorBin, v)
		}
		if !degreeOK(v, int(pre[v])) || int(pre[v]) >= pLen {
			moved = append(moved, v)
		}
	}
	for _, v := range moved {
		r.nodeBin[v] = -1
	}
	r.movedToMid = len(moved)
	r.sameBinDeg = make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		if r.nodeBin[v] >= 0 {
			r.sameBinDeg[v] = int32(sameBin(r.nodeBin, v))
		}
	}
	return r
}

// explicitPalettes gives every node a palette of d(v)+3 colors mixing
// negative colors, IDs far beyond the table's width cap and the int32
// extremes, so the table's direct-hash fallback and both count branches
// all run: v%3 == 0 gets a contiguous negative run, v%3 == 1 a contiguous
// run near 2^30, and v%3 == 2 a scattered palette spanning the int32 range.
func explicitPalettes(g *graph.Graph) *d1lc.Instance {
	pal := make([][]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		k := g.Degree(v) + 3
		p := make([]int32, 0, k)
		switch v % 3 {
		case 0:
			for i := 0; i < k; i++ {
				p = append(p, -50_000+v%7+int32(i))
			}
		case 1:
			for i := 0; i < k; i++ {
				p = append(p, 1<<30+v+int32(i))
			}
		default:
			p = append(p, math.MinInt32+v%3)
			for i := 0; i < k-2; i++ {
				p = append(p, -40_000+2*int32(i)+v%2)
			}
			p = append(p, math.MaxInt32-v%3)
		}
		pal[v] = p
	}
	return &d1lc.Instance{G: g, Palettes: pal}
}

// TestColorTableMatchesPerEntry pins Compute's tabulated color search to
// the per-entry reference: same seeds, seed count, node bins, moves, d′,
// color bins and restricted palettes, on contiguous, scattered, shifted,
// sparse/negative-ID and empty-table instances under every strategy.
func TestColorTableMatchesPerEntry(t *testing.T) {
	dense := graph.Gnp(300, 0.25, 4)
	cases := []struct {
		name string
		in   *d1lc.Instance
		o    Options
	}{
		{"trivial-gnp", d1lc.TrivialPalettes(graph.Gnp(400, 0.15, 1)), Options{Bins: 4, MidDegree: 20}},
		{"trivial-gnp-defaults", d1lc.TrivialPalettes(dense), Options{}},
		{"delta1", d1lc.DeltaPlus1Palettes(dense), Options{Bins: 5, MidDegree: 16}},
		{"random", d1lc.RandomPalettes(graph.Gnp(300, 0.25, 5), 2, 300, 6), Options{Bins: 4, MidDegree: 12}},
		{"shifted", d1lc.ShiftedPalettes(dense, 3, 70), Options{Bins: 4, MidDegree: 16}},
		{"explicit-sparse-ids", explicitPalettes(graph.Gnp(400, 0.15, 2)), Options{Bins: 4, MidDegree: 12}},
		{"bins-over-byte", d1lc.TrivialPalettes(graph.Gnp(150, 0.3, 8)), Options{Bins: 300, MidDegree: 16}},
		{"no-restricted", d1lc.TrivialPalettes(graph.Cycle(50)), Options{}},
	}
	for _, tc := range cases {
		for _, strat := range []Strategy{SeedSearch, GF2CondExp, RandomOnce} {
			o := tc.o
			o.Strategy = strat
			part, err := Compute(tc.in, o)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, strat, err)
			}
			ref := referenceCompute(tc.in, o)
			where := tc.name + "/" + strat.String()
			if part.ColorSeed != ref.colorSeed || part.SeedsTried != ref.seedsTried || part.MovedToMid != ref.movedToMid {
				t.Fatalf("%s: seed %d tried %d moved %d, reference %d/%d/%d", where,
					part.ColorSeed, part.SeedsTried, part.MovedToMid, ref.colorSeed, ref.seedsTried, ref.movedToMid)
			}
			if !slices.Equal(part.NodeBin, ref.nodeBin) || !slices.Equal(part.SameBinDeg, ref.sameBinDeg) {
				t.Fatalf("%s: NodeBin or SameBinDeg differs from the reference", where)
			}
			restricted := 0
			for v := int32(0); v < int32(tc.in.N()); v++ {
				for _, c := range tc.in.Palettes[v] {
					if got, want := part.ColorBin(c), ref.colorBin(c); got != want {
						t.Fatalf("%s: ColorBin(%d) = %d, reference %d", where, c, got, want)
					}
				}
				want := tc.in.Palettes[v]
				if b := ref.nodeBin[v]; b >= 0 && int(b) < part.Bins-1 {
					restricted++
					want = nil
					for _, c := range tc.in.Palettes[v] {
						if ref.colorBin(c) == int(b) {
							want = append(want, c)
						}
					}
				}
				if got := part.restrictedPalette(tc.in, v); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d restricted palette %v, reference %v", where, v, got, want)
				}
				if got := part.restrictedPaletteLen(tc.in, v); got != len(want) {
					t.Fatalf("%s: node %d p′ = %d, reference %d", where, v, got, len(want))
				}
			}
			if tc.name == "no-restricted" && restricted != 0 {
				t.Fatalf("%s: %d restricted nodes, want none", where, restricted)
			}
			if tc.name != "no-restricted" && restricted == 0 {
				t.Fatalf("%s: no restricted nodes — case exercises nothing", where)
			}
		}
	}
}

// TestColorSpanCapsWidth pins the span bound: sparse IDs cap the width at
// ⌈Σ|p(v)|/bins⌉, only restricted bins' palettes count, and none give an
// empty table.
func TestColorSpanCapsWidth(t *testing.T) {
	in := &d1lc.Instance{G: graph.Empty(2), Palettes: [][]int32{{-7, 1 << 30}, {5, 6, 7}}}
	part := &Partition{Bins: 4, NodeBin: []int32{0, 2}}
	if lo, width := colorSpan(in, part, []int32{0, 1}, 3); lo != -7 || width != 2 {
		t.Fatalf("span lo=%d width=%d, want -7 and ⌈5/3⌉ = 2", lo, width)
	}
	part.NodeBin = []int32{-1, 2}
	if lo, width := colorSpan(in, part, []int32{0, 1}, 3); lo != 5 || width != 1 {
		t.Fatalf("span lo=%d width=%d, want 5 and ⌈3/3⌉ = 1", lo, width)
	}
	part.NodeBin = []int32{-1, 3}
	if _, width := colorSpan(in, part, []int32{0, 1}, 3); width != 0 {
		t.Fatalf("no restricted palette: width %d, want 0", width)
	}
}

// FuzzColorTableCount checks colorTable.count and colorBin against the
// per-entry hashfam.Poly.Bin count, for a table at a fuzzed position and
// width and for one covering the palette (so the contiguous prefix branch
// runs whenever the palette is a run).
func FuzzColorTableCount(f *testing.F) {
	f.Add(uint64(0), uint8(3), int32(0), uint16(64), int32(0), true, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(7), uint8(15), int32(-20), uint16(300), int32(-10), false, []byte{0, 3, 0, 0, 9, 1, 0, 200})
	f.Add(uint64(1<<40), uint8(1), int32(math.MaxInt32-10), uint16(4000), int32(math.MaxInt32-40), true, []byte{1, 2, 3})
	f.Add(uint64(3), uint8(4), int32(math.MinInt32), uint16(9), int32(math.MinInt32), false, []byte{0, 0, 255, 0})
	f.Fuzz(func(t *testing.T, seed uint64, binsIn uint8, lo int32, width uint16, start int32, contiguous bool, data []byte) {
		bins := 1 + int(binsIn)%16
		if len(data) > 1024 {
			data = data[:1024]
		}
		// Strictly increasing colors from start, steps of 1 + data[i]
		// (always 1 when contiguous), stopping before int32 overflow.
		p := []int32{start}
		for _, d := range data {
			step := 1 + int64(d)
			if contiguous {
				step = 1
			}
			next := int64(p[len(p)-1]) + step
			if next > math.MaxInt32 {
				break
			}
			p = append(p, int32(next))
		}
		h := hashfam.NewPoly(seedWords(seed, 2))
		want := make([]int, bins)
		for _, c := range p {
			want[h.Bin(uint64(c)+1, bins)]++
		}
		span := min(int64(p[len(p)-1])-int64(p[0])+1, 1<<12)
		for _, tab := range []*colorTable{
			newColorTable(bins, lo, int(min(int64(width), math.MaxInt32-int64(lo)+1))),
			newColorTable(bins, p[0], int(span)),
		} {
			tab.reset(seed)
			for _, c := range p {
				if got, ref := tab.colorBin(c), h.Bin(uint64(c)+1, bins); got != ref {
					t.Fatalf("table lo=%d width=%d: colorBin(%d) = %d, want %d", tab.lo, len(tab.bin), c, got, ref)
				}
			}
			for b := 0; b < bins; b++ {
				if got := tab.count(p, b); got != want[b] {
					t.Fatalf("table lo=%d width=%d: count(bin %d) = %d, want %d (palette %d colors from %d)",
						tab.lo, len(tab.bin), b, got, want[b], len(p), p[0])
				}
			}
		}
	})
}
