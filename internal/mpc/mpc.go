// Package mpc implements the sublinear-local-space Massively Parallel
// Computation model of Section 2.1: a cluster of machines with s words of
// local space each, computing in synchronous rounds, exchanging messages
// whose per-machine send and receive volumes must both fit in s.
//
// The engine enforces the model mechanically: every round it measures each
// machine's stored words, sent words, and received words against s, either
// failing fast (Strict) or recording high-water marks for the space
// experiments (E9). Machines execute concurrently on a goroutine worker
// pool; determinism is preserved because inboxes are assembled in sender
// order, not arrival order. Delivery is reliable, as the model assumes:
// every record sent in a round reaches its destination's inbox exactly
// once, at the round boundary.
//
// On top of the raw engine, this package provides the classical O(1)-round
// MPC toolbox the paper takes from Goodrich–Sitchinava–Zhang [GSZ11]:
// broadcast/aggregation trees, deterministic distributed sample sort, and
// prefix sums — and the Lemma 17 neighborhood-gathering subroutines used
// to simulate LOCAL coloring rounds when Δ ≤ √s.
package mpc

import (
	"context"
	"fmt"
	"sort"

	"parcolor/internal/par"
)

// Config describes a cluster.
type Config struct {
	// Machines is the number of machines (paper: Θ̃(n + m/s), enough to
	// dedicate a machine per node).
	Machines int
	// LocalSpace is s, in words.
	LocalSpace int
	// Strict makes space violations immediate errors; otherwise they are
	// recorded in Metrics and execution continues (useful to *measure* how
	// much space an algorithm actually needs).
	Strict bool
	// Par scopes the per-round machine-step parallel loop to an explicit
	// worker budget (simulation concurrency only — the model's round
	// semantics are unaffected). nil means the process default.
	Par *par.Runner
}

// Metrics aggregates model-relevant accounting across rounds.
type Metrics struct {
	Rounds        int
	MaxStored     int64 // high-water words stored on any machine
	MaxSent       int64 // high-water words sent by any machine in a round
	MaxReceived   int64 // high-water words received by any machine in a round
	TotalMessages int64
	Violations    int // space-cap violations observed (non-strict mode)
}

// Machine is one MPC machine. Step functions may freely mutate Recs; the
// engine measures storage after each step.
type Machine struct {
	ID int
	// Recs is the machine's local storage: a bag of records.
	Recs [][]int64
	// Inbox holds the records received at the end of the previous round,
	// in ascending sender order.
	Inbox []Delivery
}

// Delivery is one received record together with its sender.
type Delivery struct {
	From int
	Rec  []int64
}

// Mailer queues outgoing messages for one machine during a step.
type Mailer struct {
	msgs []outMsg
}

type outMsg struct {
	to  int
	rec []int64
}

// Send queues rec for delivery to machine 'to' at the round boundary.
// The engine accounts len(rec) words against both sender and receiver.
func (m *Mailer) Send(to int, rec []int64) {
	m.msgs = append(m.msgs, outMsg{to: to, rec: rec})
}

// Cluster is a running MPC instance.
type Cluster struct {
	cfg      Config
	ctx      context.Context // round-boundary cancellation; nil = never
	Machines []*Machine
	Metrics  Metrics
}

// NewCluster allocates a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Machines < 1 || cfg.LocalSpace < 1 {
		return nil, fmt.Errorf("mpc: invalid config %+v", cfg)
	}
	c := &Cluster{cfg: cfg}
	c.Machines = make([]*Machine, cfg.Machines)
	for i := range c.Machines {
		c.Machines[i] = &Machine{ID: i}
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetContext attaches ctx to the cluster: every subsequent Round checks it
// first and returns its error when cancelled, so multi-round protocols
// (selection trees, converge-casts, sort passes) abort at the next round
// boundary with the engine state intact. nil detaches.
func (c *Cluster) SetContext(ctx context.Context) { c.ctx = ctx }

// Step is one machine's program for one round.
type Step func(m *Machine, out *Mailer)

// Round runs step on every machine concurrently, then delivers every
// queued record — each inbox in ascending sender order, send order kept
// within a sender — and enforces the space constraints of the model. A
// message to a machine outside the cluster fails the round before any
// delivery: inboxes are untouched and the round is not counted.
func (c *Cluster) Round(step Step) error {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return err
		}
	}
	n := len(c.Machines)
	mailers := make([]Mailer, n)
	c.cfg.Par.For(n, func(i int) {
		step(c.Machines[i], &mailers[i])
	})
	// Walking senders in ascending order builds every inbox in sender
	// order. Inboxes are staged and installed only once every destination
	// has been validated.
	inboxes := make([][]Delivery, n)
	sent := make([]int64, n)
	recv := make([]int64, n)
	var totalMsgs int64
	for from := range mailers {
		for _, m := range mailers[from].msgs {
			if m.to < 0 || m.to >= n {
				return fmt.Errorf("mpc: machine %d sent to invalid machine %d", from, m.to)
			}
			w := int64(len(m.rec))
			sent[from] += w
			recv[m.to] += w
			totalMsgs++
			inboxes[m.to] = append(inboxes[m.to], Delivery{From: from, Rec: m.rec})
		}
	}
	s := int64(c.cfg.LocalSpace)
	for i := 0; i < n; i++ {
		c.Machines[i].Inbox = inboxes[i]
		stored := storedWords(c.Machines[i])
		if stored > c.Metrics.MaxStored {
			c.Metrics.MaxStored = stored
		}
		if sent[i] > c.Metrics.MaxSent {
			c.Metrics.MaxSent = sent[i]
		}
		if recv[i] > c.Metrics.MaxReceived {
			c.Metrics.MaxReceived = recv[i]
		}
		if sent[i] > s || recv[i] > s || stored > s {
			c.Metrics.Violations++
			if c.cfg.Strict {
				return fmt.Errorf("mpc: machine %d violates s=%d (stored=%d sent=%d recv=%d) in round %d",
					i, s, stored, sent[i], recv[i], c.Metrics.Rounds)
			}
		}
	}
	c.Metrics.TotalMessages += totalMsgs
	c.Metrics.Rounds++
	return nil
}

func storedWords(m *Machine) int64 {
	var w int64
	for _, r := range m.Recs {
		w += int64(len(r))
	}
	for _, d := range m.Inbox {
		w += int64(len(d.Rec))
	}
	return w
}

// AbsorbInbox moves all inbox records into local storage; the idiom at the
// start of most steps.
func (m *Machine) AbsorbInbox() {
	for _, d := range m.Inbox {
		m.Recs = append(m.Recs, d.Rec)
	}
	m.Inbox = nil
}

// --- Broadcast / aggregation trees ----------------------------------------

// fanout returns the k-ary tree fanout that keeps per-round send volume
// within s for payloads of the given width.
func (c *Cluster) fanout(payloadWords int) int {
	if payloadWords < 1 {
		payloadWords = 1
	}
	k := c.cfg.LocalSpace / payloadWords
	if k < 2 {
		k = 2
	}
	return k
}

// Broadcast sends rec from machine root to every machine via a k-ary tree,
// in O(log_k Machines) rounds. Each receiving machine stores the record.
func (c *Cluster) Broadcast(root int, rec []int64) error {
	n := len(c.Machines)
	k := c.fanout(len(rec))
	// Relabel machines so root is position 0 in a k-ary heap ordering.
	pos := func(id int) int { return (id - root + n) % n }
	id := func(p int) int { return (p + root) % n }
	c.Machines[root].Recs = append(c.Machines[root].Recs, rec)
	frontier := map[int]bool{0: true} // heap positions that send this round
	for len(frontier) > 0 {
		sending := frontier
		frontier = map[int]bool{}
		err := c.Round(func(m *Machine, out *Mailer) {
			p := pos(m.ID)
			if !sending[p] {
				return
			}
			for child := p*k + 1; child <= p*k+k && child < n; child++ {
				out.Send(id(child), rec)
			}
		})
		if err != nil {
			return err
		}
		for p := range sending {
			for child := p*k + 1; child <= p*k+k && child < n; child++ {
				frontier[child] = true
			}
		}
		for _, m := range c.Machines {
			m.AbsorbInbox()
		}
	}
	return nil
}

// Aggregate combines one value per machine up a k-ary tree to machine 0
// using the associative op, in O(log_k Machines) rounds. Returns the total.
func (c *Cluster) Aggregate(values []int64, op func(a, b int64) int64) (int64, error) {
	n := len(c.Machines)
	if len(values) != n {
		return 0, fmt.Errorf("mpc: Aggregate needs one value per machine")
	}
	acc := append([]int64(nil), values...)
	k := c.fanout(1)
	// Tree levels: children (p*k+1 .. p*k+k) send to parent p.
	level := levelsOf(n, k)
	for l := level - 1; l >= 1; l-- {
		lo, hi := levelRange(l, k)
		err := c.Round(func(m *Machine, out *Mailer) {
			p := m.ID
			if p >= lo && p <= hi && p < n {
				out.Send((p-1)/k, []int64{acc[p]})
			}
		})
		if err != nil {
			return 0, err
		}
		for p := 0; p < n; p++ {
			for _, d := range c.Machines[p].Inbox {
				acc[p] = op(acc[p], d.Rec[0])
			}
			c.Machines[p].Inbox = nil
		}
	}
	return acc[0], nil
}

// levelsOf returns the number of levels of a k-ary heap with n positions.
func levelsOf(n, k int) int {
	levels := 0
	count := 1
	total := 0
	for total < n {
		total += count
		count *= k
		levels++
	}
	return levels
}

// levelRange returns the position range [lo, hi] of level l in a k-ary heap.
func levelRange(l, k int) (lo, hi int) {
	lo = 0
	size := 1
	for i := 0; i < l; i++ {
		lo += size
		size *= k
	}
	return lo, lo + size - 1
}

// --- Record ordering -------------------------------------------------------

// CompareRecs orders records lexicographically; it is the total order used
// by Sort so that results are deterministic regardless of distribution.
func CompareRecs(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// sortLocal sorts a machine's records lexicographically.
func sortLocal(m *Machine) {
	sort.Slice(m.Recs, func(i, j int) bool { return CompareRecs(m.Recs[i], m.Recs[j]) < 0 })
}
