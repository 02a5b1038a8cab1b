package mpc

import (
	"context"
	"errors"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

// cancelOnCall is a context whose Err starts returning context.Canceled on
// its after-th call. Round checks the context once, before it runs, so the
// after-th round is the first one refused — simulating the operator
// pulling the plug while a multi-round protocol is in flight.
type cancelOnCall struct {
	context.Context
	calls, after int
}

func (c *cancelOnCall) Err() error {
	c.calls++
	if c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// Cancelling mid-converge-cast must abort the selection promptly with
// context.Canceled: the rounds already run stand (the model is
// synchronous), but no further round starts.
func TestRoundCancelMidConvergeCast(t *testing.T) {
	const nm = 64
	fill := func(mid int, row []int64) {
		for s := range row {
			row[s] = int64((mid ^ s) & 1)
		}
	}
	full, err := NewCluster(Config{Machines: nm, LocalSpace: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DistributedSelectSeedRows(full, 32, fill); err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(Config{Machines: nm, LocalSpace: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// The row converge-cast over 64 machines spends several rounds
	// (compute, then pipelined levels); refusing the 3rd lands mid-cast.
	ctx := &cancelOnCall{Context: context.Background(), after: 3}
	c.SetContext(ctx)
	defer c.SetContext(nil)

	_, _, err = DistributedSelectSeedRows(c, 32, fill)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled mid-converge-cast, got %v", err)
	}
	if full.Metrics.Rounds <= ctx.after {
		t.Fatalf("uncancelled cast takes %d rounds; a cancel on check %d is not mid-cast", full.Metrics.Rounds, ctx.after)
	}
	if ctx.calls != ctx.after {
		t.Fatalf("cast kept going after cancel: %d context checks, cancelled on %d", ctx.calls, ctx.after)
	}
	if c.Metrics.Rounds != ctx.after-1 {
		t.Fatalf("committed rounds %d != rounds that passed the check %d", c.Metrics.Rounds, ctx.after-1)
	}
}

// The same prompt-abort contract holds for the full solver: a cancel in
// the middle of a TRC round's protocol surfaces context.Canceled without
// running further rounds.
func TestDeterministicColorMPCCancelMidRun(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Cycle(48))
	c, err := NewCluster(Config{Machines: in.G.N() + 1, LocalSpace: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelOnCall{Context: context.Background(), after: 4}
	_, _, err = DeterministicColorMPC(ctx, c, in, 5, 0, nil, RoundOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ctx.calls != ctx.after {
		t.Fatalf("solver kept going after cancel: %d context checks, cancelled on %d", ctx.calls, ctx.after)
	}
	if c.Metrics.Rounds != ctx.after-1 {
		t.Fatalf("committed rounds %d != rounds that passed the check %d", c.Metrics.Rounds, ctx.after-1)
	}
}
