package mpc

import (
	"fmt"
	"sort"
)

// This file implements the O(1)-round MPC toolbox of [GSZ11] that the
// paper's Section 2.1 invokes: deterministic sample sort and prefix sums.
// "O(1) rounds" here means a constant number of Round calls per call for
// fixed machine count growth (the broadcast/aggregation trees add
// O(log_k M) rounds with k = s/width, constant for s = n^φ).

// Sort globally sorts all fixed-width records across machines: afterwards
// machine i holds a lexicographically contiguous, locally sorted run, and
// runs ascend with machine id. Deterministic regardless of the initial
// distribution.
func (c *Cluster) Sort(width int) error {
	n := len(c.Machines)
	if n == 1 {
		if err := c.Round(func(m *Machine, out *Mailer) { sortLocal(m) }); err != nil {
			return err
		}
		return nil
	}
	for _, m := range c.Machines {
		for _, r := range m.Recs {
			if len(r) != width {
				return fmt.Errorf("mpc: Sort(width=%d) found record of width %d", width, len(r))
			}
		}
	}
	// Round 1: local sort + send regular samples to machine 0.
	perMachine := n - 1
	if cap := c.cfg.LocalSpace / (width * n); perMachine > cap && cap >= 1 {
		perMachine = cap
	}
	err := c.Round(func(m *Machine, out *Mailer) {
		sortLocal(m)
		k := len(m.Recs)
		if k == 0 {
			return
		}
		p := perMachine
		if p > k {
			p = k
		}
		for j := 1; j <= p; j++ {
			out.Send(0, m.Recs[(j*k)/(p+1)])
		}
	})
	if err != nil {
		return err
	}
	// Machine 0 picks n-1 splitters from the samples.
	var samples [][]int64
	for _, d := range c.Machines[0].Inbox {
		samples = append(samples, d.Rec)
	}
	c.Machines[0].Inbox = nil
	sort.Slice(samples, func(i, j int) bool { return CompareRecs(samples[i], samples[j]) < 0 })
	splitters := make([][]int64, 0, n-1)
	for j := 1; j < n; j++ {
		if len(samples) == 0 {
			break
		}
		idx := j * len(samples) / n
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		splitters = append(splitters, samples[idx])
	}
	// Broadcast the splitter table (flattened).
	flat := make([]int64, 0, len(splitters)*width+1)
	flat = append(flat, int64(len(splitters)))
	for _, s := range splitters {
		flat = append(flat, s...)
	}
	if err := c.Broadcast(0, flat); err != nil {
		return err
	}
	// Each machine removes the table from storage, routes records.
	err = c.Round(func(m *Machine, out *Mailer) {
		var table [][]int64
		recs := m.Recs[:0]
		for _, r := range m.Recs {
			if table == nil && len(r) >= 1 && len(r) == 1+int(r[0])*width && isSplitterTable(r, width) {
				cnt := int(r[0])
				table = make([][]int64, cnt)
				for i := 0; i < cnt; i++ {
					table[i] = r[1+i*width : 1+(i+1)*width]
				}
				continue
			}
			recs = append(recs, r)
		}
		m.Recs = recs
		for _, r := range m.Recs {
			// bucket = number of splitters strictly less than r
			b := sort.Search(len(table), func(i int) bool { return CompareRecs(table[i], r) >= 0 })
			out.Send(b, r)
		}
		m.Recs = nil
	})
	if err != nil {
		return err
	}
	// Final: absorb and locally sort.
	return c.Round(func(m *Machine, out *Mailer) {
		m.AbsorbInbox()
		sortLocal(m)
	})
}

// isSplitterTable distinguishes the broadcast splitter table from data
// records. Data records in Sort all have length == width; the table has
// length 1+cnt*width which differs from width whenever cnt ≥ 1, and a
// zero-splitter table (len 1) only arises when width != 1 data is absent.
func isSplitterTable(r []int64, width int) bool {
	return len(r) != width
}

// Scan computes the exclusive prefix sum (in machine-ID order) of one value
// per machine using a k-ary range tree: the host of block [lo, lo+B) is
// machine lo, and each level merges k sub-blocks, so the sweep takes
// O(log_k M) rounds with at most k−1 words sent or received per machine per
// round — O(1) rounds for k = s^Ω(1), matching [GSZ11]. Returns the offsets
// and the grand total.
func (c *Cluster) Scan(values []int64) (offsets []int64, total int64, err error) {
	n := len(c.Machines)
	if len(values) != n {
		return nil, 0, fmt.Errorf("mpc: Scan needs one value per machine, got %d for %d", len(values), n)
	}
	k := c.fanout(2) // up-sweep children send 2-word records
	if k > n {
		k = n
	}
	if k < 2 {
		k = 2
	}
	// sums[lo] = sum of the block currently hosted at lo.
	sums := append([]int64(nil), values...)
	// childSums[level][lo] = the k child-block sums of host lo at that level.
	var childSums []map[int][]int64
	var blockSizes []int
	for b := k; ; b *= k {
		sub := b / k // child block size at this level
		if sub >= n {
			break
		}
		level := len(childSums)
		childSums = append(childSums, map[int][]int64{})
		blockSizes = append(blockSizes, b)
		err := c.Round(func(m *Machine, out *Mailer) {
			id := m.ID
			if id%sub != 0 || id%b == 0 {
				return // not a non-leading child host at this level
			}
			parent := id - id%b
			out.Send(parent, []int64{int64((id % b) / sub), sums[id]})
		})
		if err != nil {
			return nil, 0, err
		}
		for lo := 0; lo < n; lo += b {
			cs := make([]int64, k)
			cs[0] = sums[lo]
			for _, d := range c.Machines[lo].Inbox {
				cs[d.Rec[0]] = d.Rec[1]
			}
			c.Machines[lo].Inbox = nil
			totalBlock := int64(0)
			for _, s := range cs {
				totalBlock += s
			}
			childSums[level][lo] = cs
			sums[lo] = totalBlock
		}
		if b >= n {
			break
		}
	}
	total = sums[0]
	// Down-sweep.
	offsets = make([]int64, n)
	for level := len(childSums) - 1; level >= 0; level-- {
		b := blockSizes[level]
		sub := b / k
		err := c.Round(func(m *Machine, out *Mailer) {
			lo := m.ID
			if lo%b != 0 {
				return
			}
			cs := childSums[level][lo]
			off := offsets[lo]
			for j := 1; j < k; j++ {
				child := lo + j*sub
				if child >= n {
					break
				}
				off += cs[j-1]
				out.Send(child, []int64{off})
			}
		})
		if err != nil {
			return nil, 0, err
		}
		for p := 0; p < n; p++ {
			for _, d := range c.Machines[p].Inbox {
				offsets[p] = d.Rec[0]
			}
			c.Machines[p].Inbox = nil
		}
	}
	return offsets, total, nil
}
