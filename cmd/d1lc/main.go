// Command d1lc colors a (degree+1)-list-coloring instance with any of the
// library's solvers and reports round accounting.
//
// Usage:
//
//	d1lc -graph mixed -n 1000 -alg deterministic
//	d1lc -graph gnp-dense -n 400 -alg randomized -seed 7
//	d1lc -graph regular -n 600 -alg lowdeg -print
//	d1lc -graph mixed -n 3000 -workers 4 -timeout 2s -trace
//
// Algorithms: deterministic (Theorem 1), randomized (Lemma 4),
// greedy (sequential baseline), lowdeg (conditional-expectations
// iterative solver), jp (Jones–Plassmann classical baseline), luby
// (Luby-MIS classical baseline).
//
// The command drives the reusable Solver API: -workers scopes the worker
// budget to this run, -timeout cancels the solve through its context (a
// deadline exceeded exits with status 3), and -trace prints the per-phase
// summary the engines emitted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"parcolor"
	"parcolor/internal/graph"
)

func main() {
	var (
		graphName = flag.String("graph", "mixed", "workload graph: "+fmt.Sprint(parcolor.GraphNames()))
		input     = flag.String("input", "", "read the graph from an edge-list file instead of generating")
		n         = flag.Int("n", 500, "approximate node count")
		alg       = flag.String("alg", "deterministic", "deterministic|randomized|greedy|lowdeg|jp|luby")
		seed      = flag.Uint64("seed", 1, "seed for randomized components and generators")
		seedBits  = flag.Int("seedbits", 0, "PRG seed bits for derandomization (0 = auto)")
		nisan     = flag.Bool("nisan", false, "use the Nisan-style PRG")
		bitwise   = flag.Bool("bitwise", false, "bit-by-bit conditional expectations")
		palette   = flag.String("palette", "trivial", "trivial|delta1|random")
		extra     = flag.Int("extra", 2, "extra palette slack for -palette random")
		printCols = flag.Bool("print", false, "print the coloring")
		dsshard   = flag.Bool("degreeshard", false, "solve on the degree-sorted sharded relabeling (coloring mapped back)")
		workers   = flag.Int("workers", 0, "worker goroutine bound for this solve (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "cancel the solve after this long (0 = no timeout)")
		traceFlag = flag.Bool("trace", false, "print the per-phase trace summary")
		traceMem  = flag.Bool("tracemem", false, "add per-phase allocation/peak-heap columns to -trace (implies -trace)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the solve to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (post-solve) to this file")
	)
	flag.Parse()

	var g *parcolor.Graph
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		g, err = graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		*graphName = *input
	} else {
		g = parcolor.GenerateGraph(*graphName, *n, *seed)
	}
	var in *parcolor.Instance
	switch *palette {
	case "delta1":
		in = parcolor.DeltaPlus1Palettes(g)
	case "random":
		in = parcolor.RandomPalettes(g, *extra, 4*(g.MaxDegree()+1), *seed)
	default:
		in = parcolor.TrivialPalettes(g)
	}

	var algorithm parcolor.Algorithm
	switch *alg {
	case "deterministic":
		algorithm = parcolor.Deterministic
	case "randomized":
		algorithm = parcolor.Randomized
	case "greedy":
		algorithm = parcolor.GreedySequential
	case "lowdeg":
		algorithm = parcolor.LowDegreeDeterministic
	case "jp":
		algorithm = parcolor.JonesPlassmann
	case "luby":
		algorithm = parcolor.LubyColoring
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}

	opts := []parcolor.Option{
		parcolor.WithAlgorithm(algorithm),
		parcolor.WithSeed(*seed),
		parcolor.WithSeedBits(*seedBits),
		parcolor.WithNisan(*nisan),
		parcolor.WithBitwise(*bitwise),
		parcolor.WithDegreeShard(*dsshard),
		parcolor.WithWorkers(*workers),
	}
	var collector *parcolor.TraceCollector
	if *traceFlag || *traceMem {
		collector = parcolor.NewTraceCollector()
		if *traceMem {
			collector.EnableMemoryTracking()
		}
		opts = append(opts, parcolor.WithTrace(collector))
	}
	solver, err := parcolor.NewSolver(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	start := time.Now()
	res, err := solver.Solve(ctx, in)
	elapsed := time.Since(start)

	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "error:", ferr)
			os.Exit(2)
		}
		runtime.GC() // profile live objects, not garbage
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintln(os.Stderr, "error:", werr)
			os.Exit(2)
		}
		f.Close()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "timeout: solve cancelled after %s (%v)\n", elapsed.Round(time.Millisecond), err)
			if collector != nil {
				// The phases that did complete show where the budget went.
				fmt.Fprint(os.Stderr, "trace (completed phases):\n"+collector.String())
			}
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("graph=%s n=%d m=%d maxDeg=%d\n", *graphName, g.N(), g.M(), g.MaxDegree())
	fmt.Printf("algorithm=%s rounds=%d distinctColors=%d deferralFrac=%.3f workers=%d elapsed=%s\n",
		algorithm, res.Rounds, res.DistinctColors, res.DeferralFraction, *workers, elapsed.Round(time.Millisecond))
	if res.Sparsify != nil {
		fmt.Printf("sparsify: depth=%d partitions=%d baseInstances=%d movedToMid=%d copiedNodes=%d copiedArcs=%d lemma23ratio=%.3f\n",
			res.Sparsify.Depth, res.Sparsify.Partitions, res.Sparsify.BaseInstances,
			res.Sparsify.MovedToMid, res.Sparsify.CopiedNodes, res.Sparsify.CopiedArcs,
			res.Sparsify.MaxDegreeRatio)
	}
	fmt.Println("verified: proper list coloring")
	if collector != nil {
		fmt.Print("trace:\n" + collector.String())
	}
	if *printCols {
		for v, c := range res.Coloring.Colors {
			fmt.Printf("%d %d\n", v, c)
		}
	}
}
