package sparsify

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/trace"
)

// fusedSuite is the differential graph suite: dense enough that the
// partitioner actually fires (MaxDegree > MidDegree) on several recursion
// levels, plus a skewed Chung–Lu instance where bin populations are
// lopsided.
func fusedSuite() []*d1lc.Instance {
	return []*d1lc.Instance{
		d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1)),
		d1lc.TrivialPalettes(graph.Gnp(400, 0.08, 7)),
		d1lc.TrivialPalettes(graph.ChungLu(800, 2.5, 40, 3)),
	}
}

// TestFusedMatchesSerialOracle pins the fused schedule — parallel
// restricted bins, counting-sort bucketing, arena extraction — to the
// retained sequential copy path: identical colorings, identical reports
// (including the copy counters), identical Lemma 23(a) certificates, for
// every worker bound.
func TestFusedMatchesSerialOracle(t *testing.T) {
	for gi, in := range fusedSuite() {
		opts := Options{Bins: 4, MidDegree: 12}
		opts.serialBins = true
		opts.Par = par.NewRunner(1)
		oracleCol, oracleRep, err := ColorReduce(context.Background(), in, opts, greedyBase)
		if err != nil {
			t.Fatalf("graph %d: oracle: %v", gi, err)
		}
		if oracleRep.Partitions == 0 {
			t.Fatalf("graph %d: oracle never partitioned — suite too sparse", gi)
		}
		if oracleRep.CopiedNodes == 0 || oracleRep.CopiedArcs == 0 {
			t.Fatalf("graph %d: oracle copy counters empty: %+v", gi, oracleRep)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, serial := range []bool{false, true} {
				fo := Options{Bins: 4, MidDegree: 12, serialBins: serial}
				fo.Par = par.NewRunner(workers)
				col, rep, err := ColorReduce(context.Background(), in, fo, greedyBase)
				if err != nil {
					t.Fatalf("graph %d workers=%d serial=%v: %v", gi, workers, serial, err)
				}
				for v := range oracleCol.Colors {
					if col.Colors[v] != oracleCol.Colors[v] {
						t.Fatalf("graph %d workers=%d serial=%v: color[%d] = %d, oracle %d",
							gi, workers, serial, v, col.Colors[v], oracleCol.Colors[v])
					}
				}
				if *rep != *oracleRep {
					t.Fatalf("graph %d workers=%d serial=%v: report %+v, oracle %+v",
						gi, workers, serial, *rep, *oracleRep)
				}
				if rep.MaxDegreeRatio >= 1 {
					t.Fatalf("graph %d: Lemma 23(a) certificate broken: ratio %v", gi, rep.MaxDegreeRatio)
				}
			}
		}
	}
}

// TestFusedShardOffsetsInvariant pins that shard-aware chunking is a pure
// scheduling hint: handing the top level whole degree-shards changes
// nothing about the result.
func TestFusedShardOffsetsInvariant(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1))
	base := Options{Bins: 4, MidDegree: 12}
	base.Par = par.NewRunner(4)
	wantCol, wantRep, err := ColorReduce(context.Background(), in, base, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.ShardOffsets = []int32{0, 100, 350, 600}
	col, rep, err := ColorReduce(context.Background(), in, sharded, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantCol.Colors {
		if col.Colors[v] != wantCol.Colors[v] {
			t.Fatalf("sharded color[%d] = %d, want %d", v, col.Colors[v], wantCol.Colors[v])
		}
	}
	if *rep != *wantRep {
		t.Fatalf("sharded report %+v, want %+v", *rep, *wantRep)
	}
}

// TestFusedEmitsBinSpans pins the per-bin trace spans: phase "bin" under
// engine "sparsify", one span per non-empty bin per partition level, on
// both schedules.
func TestFusedEmitsBinSpans(t *testing.T) {
	for _, serial := range []bool{false, true} {
		in := d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1))
		tc := trace.NewCollector()
		o := Options{Bins: 4, MidDegree: 12, serialBins: serial, Trace: tc}
		if _, _, err := ColorReduce(context.Background(), in, o, greedyBase); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range tc.Summary() {
			if s.Engine == "sparsify" && s.Phase == "bin" {
				found = true
				if s.Count == 0 || s.Participants == 0 {
					t.Fatalf("serial=%v: empty bin summary %+v", serial, s)
				}
			}
		}
		if !found {
			t.Fatalf("serial=%v: no sparsify/bin spans observed", serial)
		}
	}
}

// TestColorReduceCancelMidFanOut cancels the context from inside a base
// solve — i.e. while the restricted-bin fan-out is in flight — and
// expects a clean context.Canceled return with no coloring, on both
// schedules.
func TestColorReduceCancelMidFanOut(t *testing.T) {
	for _, serial := range []bool{false, true} {
		in := d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
			if calls.Add(1) == 1 {
				cancel() // first base solve pulls the plug mid-schedule
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return greedyBase(sub)
		}
		o := Options{Bins: 4, MidDegree: 12, serialBins: serial}
		col, _, err := ColorReduce(ctx, in, o, base)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: err = %v, want context.Canceled", serial, err)
		}
		if col != nil {
			t.Fatalf("serial=%v: got a coloring alongside the error", serial)
		}
	}
}

// TestSerialBinsOracleBitIdentical pins the deterministic pipeline's fused
// sparsification schedule — over the deframe base solver, configured as
// the Solver configures it — to the sequential copy-path oracle, at
// workers 1 and 4, with and without degree sharding (which feeds the
// partitioner its shard-aware chunking).
func TestSerialBinsOracleBitIdentical(t *testing.T) {
	g, err := graph.Named("gnp-dense", 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := d1lc.TrivialPalettes(g)
	solve := func(in *d1lc.Instance, workers int, serial bool, shards []int32) (*d1lc.Coloring, *Report) {
		t.Helper()
		r := par.NewRunner(workers)
		dopt := deframe.Options{Par: r, Cache: deframe.NewCache(), MemoGraph: in.G}
		base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
			col, _, err := deframe.Run(context.Background(), sub, dopt)
			return col, err
		}
		o := Options{MidDegree: 16, Par: r, ShardOffsets: shards, serialBins: serial}
		col, rep, err := ColorReduce(context.Background(), in, o, base)
		if err != nil {
			t.Fatalf("workers=%d serial=%v shards=%v: %v", workers, serial, shards != nil, err)
		}
		if err := d1lc.Verify(in, col); err != nil {
			t.Fatalf("workers=%d serial=%v shards=%v: %v", workers, serial, shards != nil, err)
		}
		return col, rep
	}
	want, wantRep := solve(in, 1, true, nil)
	if wantRep.Partitions == 0 {
		t.Fatalf("oracle never partitioned: %+v", wantRep)
	}
	for _, workers := range []int{1, 4} {
		for _, shard := range []bool{false, true} {
			if shard {
				// Sharding permutes the instance, so only the report's
				// schedule shape is comparable, not the coloring bits.
				rl := graph.DegreeSorted(in.G)
				pal := make([][]int32, in.G.N())
				for i, old := range rl.OldOf {
					pal[i] = in.Palettes[old]
				}
				sharded := &d1lc.Instance{G: rl.Apply(par.NewRunner(workers), in.G), Palettes: pal}
				if _, rep := solve(sharded, workers, false, rl.ShardOffsets); rep.Partitions != wantRep.Partitions {
					t.Fatalf("workers=%d shard=%v: partitions %d, want %d",
						workers, shard, rep.Partitions, wantRep.Partitions)
				}
				continue
			}
			got, rep := solve(in, workers, false, nil)
			for v := range want.Colors {
				if got.Colors[v] != want.Colors[v] {
					t.Fatalf("workers=%d: color[%d] = %d, oracle %d", workers, v, got.Colors[v], want.Colors[v])
				}
			}
			if *rep != *wantRep {
				t.Fatalf("workers=%d: report %+v, oracle %+v", workers, *rep, *wantRep)
			}
		}
	}
}
