package mpc

import (
	"testing"
	"time"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/rng"
)

func TestRoundDeliveryAndAccounting(t *testing.T) {
	c, err := NewCluster(Config{Machines: 3, LocalSpace: 100, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Round(func(m *Machine, out *Mailer) {
		if m.ID == 0 {
			out.Send(1, []int64{42, 43})
			out.Send(2, []int64{7})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Machines[1].Inbox) != 1 || c.Machines[1].Inbox[0].Rec[0] != 42 {
		t.Fatal("delivery to 1 wrong")
	}
	if len(c.Machines[2].Inbox) != 1 || c.Machines[2].Inbox[0].From != 0 {
		t.Fatal("delivery to 2 wrong")
	}
	if c.Metrics.Rounds != 1 || c.Metrics.MaxSent != 3 || c.Metrics.TotalMessages != 2 {
		t.Fatalf("metrics %+v", c.Metrics)
	}
}

// Concurrent senders into one inbox: machine 1's inbox is in ascending
// sender order with each sender's send order kept, however the steps
// interleave. Lower ids finish later, so arrival order is reversed.
func TestRoundInboxSenderOrder(t *testing.T) {
	c, err := NewCluster(Config{Machines: 3, LocalSpace: 100, Strict: true, Par: par.NewRunner(3)})
	if err != nil {
		t.Fatal(err)
	}
	widths := [][]int{{2, 3, 4}, {2, 2}, {2, 2, 3}} // per sender, per record
	err = c.Round(func(m *Machine, out *Mailer) {
		time.Sleep(time.Duration(2-m.ID) * time.Millisecond)
		for seq, w := range widths[m.ID] {
			rec := make([]int64, w)
			rec[0], rec[1] = int64(m.ID), int64(seq)
			out.Send(1, rec)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox := c.Machines[1].Inbox
	if len(inbox) != 8 {
		t.Fatalf("machine 1 received %d records, want 8", len(inbox))
	}
	i := 0
	for from, ws := range widths {
		for seq, w := range ws {
			d := inbox[i]
			if d.From != from || d.Rec[0] != int64(from) || d.Rec[1] != int64(seq) || len(d.Rec) != w {
				t.Fatalf("inbox[%d] = from %d rec %v, want from %d seq %d width %d", i, d.From, d.Rec, from, seq, w)
			}
			i++
		}
	}
	if len(c.Machines[0].Inbox) != 0 || len(c.Machines[2].Inbox) != 0 {
		t.Fatal("records delivered to machines nobody sent to")
	}
	if c.Metrics.MaxSent != 9 || c.Metrics.MaxReceived != 20 || c.Metrics.TotalMessages != 8 {
		t.Fatalf("metrics %+v, want MaxSent 9, MaxReceived 20, TotalMessages 8", c.Metrics)
	}
}

func TestStrictSpaceViolation(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, LocalSpace: 3, Strict: true})
	err := c.Round(func(m *Machine, out *Mailer) {
		if m.ID == 0 {
			out.Send(1, []int64{1, 2, 3, 4})
		}
	})
	if err == nil {
		t.Fatal("expected strict violation")
	}
	// Non-strict records the violation instead.
	c2, _ := NewCluster(Config{Machines: 2, LocalSpace: 3, Strict: false})
	if err := c2.Round(func(m *Machine, out *Mailer) {
		if m.ID == 0 {
			out.Send(1, []int64{1, 2, 3, 4})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if c2.Metrics.Violations == 0 {
		t.Fatal("violation not recorded")
	}
}

func TestInvalidDestination(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, LocalSpace: 10, Strict: true})
	if err := c.Round(func(m *Machine, out *Mailer) {
		out.Send(1-m.ID, []int64{int64(m.ID)})
		if m.ID == 1 {
			out.Send(5, []int64{1})
		}
	}); err == nil {
		t.Fatal("expected invalid-destination error")
	}
	// The valid sends of the failed round are not delivered either, and
	// the round is not counted.
	for _, m := range c.Machines {
		if len(m.Inbox) != 0 {
			t.Fatalf("machine %d inbox %v after a failed round", m.ID, m.Inbox)
		}
	}
	if c.Metrics.Rounds != 0 {
		t.Fatalf("failed round counted: Rounds = %d", c.Metrics.Rounds)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, machines := range []int{1, 2, 5, 17, 40} {
		c, _ := NewCluster(Config{Machines: machines, LocalSpace: 64, Strict: true})
		if err := c.Broadcast(0, []int64{9, 9, 9}); err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		for _, m := range c.Machines {
			found := false
			for _, r := range m.Recs {
				if len(r) == 3 && r[0] == 9 {
					found = true
				}
			}
			if !found {
				t.Fatalf("machines=%d: machine %d missing broadcast", machines, m.ID)
			}
		}
	}
}

func TestBroadcastFromNonzeroRoot(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 7, LocalSpace: 32, Strict: true})
	if err := c.Broadcast(3, []int64{5}); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Machines {
		if len(m.Recs) != 1 || m.Recs[0][0] != 5 {
			t.Fatalf("machine %d: %v", m.ID, m.Recs)
		}
	}
}

func TestBroadcastNoDuplicates(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 13, LocalSpace: 8, Strict: true})
	if err := c.Broadcast(0, []int64{1}); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Machines {
		if len(m.Recs) != 1 {
			t.Fatalf("machine %d has %d copies", m.ID, len(m.Recs))
		}
	}
}

func TestAggregateSum(t *testing.T) {
	for _, machines := range []int{1, 3, 9, 25} {
		c, _ := NewCluster(Config{Machines: machines, LocalSpace: 50, Strict: true})
		vals := make([]int64, machines)
		var want int64
		for i := range vals {
			vals[i] = int64(i * i)
			want += vals[i]
		}
		got, err := c.Aggregate(vals, func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("machines=%d got %d want %d", machines, got, want)
		}
	}
}

func TestScanExclusivePrefix(t *testing.T) {
	for _, machines := range []int{1, 2, 4, 7, 16, 33} {
		c, _ := NewCluster(Config{Machines: machines, LocalSpace: 40, Strict: true})
		vals := make([]int64, machines)
		for i := range vals {
			vals[i] = int64(i + 1)
		}
		offsets, total, err := c.Scan(vals)
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		var run int64
		for i, v := range vals {
			if offsets[i] != run {
				t.Fatalf("machines=%d offsets[%d]=%d want %d", machines, i, offsets[i], run)
			}
			run += v
		}
		if total != run {
			t.Fatalf("machines=%d total=%d want %d", machines, total, run)
		}
	}
}

func TestSortGlobalOrder(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 8, LocalSpace: 400, Strict: true})
	// Scatter records in a scrambled pattern.
	s := rng.New(3)
	var all [][]int64
	for i := 0; i < 200; i++ {
		rec := []int64{int64(s.Intn(50)), int64(i)}
		all = append(all, rec)
		mi := s.Intn(8)
		c.Machines[mi].Recs = append(c.Machines[mi].Recs, rec)
	}
	if err := c.Sort(2); err != nil {
		t.Fatal(err)
	}
	// Collect machine by machine: must be globally sorted and complete.
	var got [][]int64
	for _, m := range c.Machines {
		for i := 1; i < len(m.Recs); i++ {
			if CompareRecs(m.Recs[i-1], m.Recs[i]) > 0 {
				t.Fatalf("machine %d locally unsorted", m.ID)
			}
		}
		if len(got) > 0 && len(m.Recs) > 0 {
			if CompareRecs(got[len(got)-1], m.Recs[0]) > 0 {
				t.Fatalf("machine boundary out of order at %d", m.ID)
			}
		}
		got = append(got, m.Recs...)
	}
	if len(got) != len(all) {
		t.Fatalf("lost records: %d vs %d", len(got), len(all))
	}
}

func TestSortWidthMismatch(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, LocalSpace: 100, Strict: true})
	c.Machines[0].Recs = append(c.Machines[0].Recs, []int64{1, 2, 3})
	if err := c.Sort(2); err == nil {
		t.Fatal("expected width error")
	}
}

func TestSortSingleMachine(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 1, LocalSpace: 100, Strict: true})
	c.Machines[0].Recs = [][]int64{{3}, {1}, {2}}
	if err := c.Sort(1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 2, 3} {
		if c.Machines[0].Recs[i][0] != want {
			t.Fatalf("recs %v", c.Machines[0].Recs)
		}
	}
}

func TestGatherNeighborhoodsLemma17(t *testing.T) {
	g := graph.RandomRegular(40, 5, 2)
	s := 256 // Δ=5, Δ² = 25 ≤ s
	c, err := ClusterForGraph(g, s, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadEdges(c, g); err != nil {
		t.Fatal(err)
	}
	if err := GatherNeighborhoods(c, g.N()); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(g.N()); v++ {
		got := Adjacency(c, v)
		want := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("node %d adjacency %v want %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d adjacency %v want %v", v, got, want)
			}
		}
	}
	if c.Metrics.Violations != 0 {
		t.Fatal("space violations recorded")
	}
}

func TestGather2HopSparsity(t *testing.T) {
	g := graph.CliquesPlusMatching(3, 6, 4) // cliques: m(N(v)) is large
	c, err := ClusterForGraph(g, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadEdges(c, g); err != nil {
		t.Fatal(err)
	}
	if err := GatherNeighborhoods(c, g.N()); err != nil {
		t.Fatal(err)
	}
	// Clear gathered adjacency recs before 2-hop so SparsityFromCluster
	// sees only neighbor lists... keep them; records of width 2 are ignored
	// by the len>=2 check only when first word matches a neighbor; adjacency
	// records are (v, w) with v itself — not a neighbor of v. Safe.
	if err := Gather2Hop(c, g); err != nil {
		t.Fatal(err)
	}
	got := SparsityFromCluster(c, g)
	for v := int32(0); v < int32(g.N()); v++ {
		want := graph.CountEdgesAmong(g, g.Neighbors(v))
		if got[v] != want {
			t.Fatalf("node %d m(N(v))=%d want %d", v, got[v], want)
		}
	}
}

func TestTryRandomColorRoundProper(t *testing.T) {
	g := graph.Gnp(60, 0.1, 5)
	in := d1lc.TrivialPalettes(g)
	c, err := ClusterForGraph(g, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	col := d1lc.NewColoring(g.N())
	remaining := make([][]int32, g.N())
	for v := range remaining {
		remaining[v] = append([]int32(nil), in.Palettes[v]...)
	}
	for round := 0; round < 40 && col.UncoloredCount() > 0; round++ {
		if err := TryRandomColorRound(c, in, col, remaining, 77, round); err != nil {
			t.Fatal(err)
		}
		if err := d1lc.VerifyPartial(in, col, false); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Colors must always be proper; completion is probabilistic but 40
	// rounds on this instance colors everything with overwhelming odds.
	if u := col.UncoloredCount(); u > 0 {
		t.Fatalf("%d nodes still uncolored after 40 rounds", u)
	}
	if c.Metrics.Violations != 0 {
		t.Fatal("space violations")
	}
}

func TestCompareRecs(t *testing.T) {
	cases := []struct {
		a, b []int64
		want int
	}{
		{[]int64{1, 2}, []int64{1, 2}, 0},
		{[]int64{1}, []int64{1, 0}, -1},
		{[]int64{2}, []int64{1, 9}, 1},
		{[]int64{1, 3}, []int64{1, 2}, 1},
	}
	for _, tc := range cases {
		if got := CompareRecs(tc.a, tc.b); got != tc.want {
			t.Fatalf("CompareRecs(%v,%v)=%d want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func BenchmarkSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, _ := NewCluster(Config{Machines: 16, LocalSpace: 4096})
		s := rng.New(uint64(i))
		for j := 0; j < 2000; j++ {
			mi := s.Intn(16)
			c.Machines[mi].Recs = append(c.Machines[mi].Recs, []int64{int64(s.Intn(1000)), int64(j)})
		}
		b.StartTimer()
		if err := c.Sort(2); err != nil {
			b.Fatal(err)
		}
	}
}
