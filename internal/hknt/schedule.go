package hknt

import (
	"fmt"
	"math"

	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
)

// Step is one normal (τ,Δ)-round distributed procedure in the sense of
// Definition 5, in trial form: Propose is the randomized procedure (pure)
// and SSP the strong success property evaluated against the proposal. The
// method of conditional expectations minimizes the number of SSP failures
// (exactly the estimator of Lemma 10), or −#wins when SSP is nil; see
// ScoreChunk.
type Step struct {
	Name string
	// Tau is the LOCAL round count of the procedure.
	Tau int
	// Bits is the per-node random bit budget (Definition 5's O(Δ^{2τ})).
	Bits int
	// Participants selects the nodes running the procedure, given the
	// current state. Non-live nodes are filtered by the trials themselves.
	Participants func(st *State) []int32
	// Readers, when set, returns exactly the nodes whose random bits
	// Propose reads under st: every node Propose passes to BitsFor must be
	// listed, participant or not. SynchColorTrial sets it because only
	// clique leaders draw, each a permutation for its inliers. nil means
	// "the participants", which holds for every trial that draws per
	// participant. The scoring engine re-expands only the readers' PRG
	// chunks per seed, so an under-declared reader silently sees stale
	// bits; TestProposeReadsOnlyDeclaredReaders pins the contract.
	Readers func(st *State) []int32
	// Propose runs the procedure without mutating state. sc, when non-nil,
	// supplies reusable buffers (see Scratch); the returned Proposal then
	// aliases them and is invalidated by the next Propose on the same sc.
	Propose func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal
	// SSP reports participant v's strong success property under the
	// proposal. Nil means trivially true (never defers).
	SSP func(st *State, parts []int32, prop Proposal, v int32) bool
}

// ScoreChunk evaluates the seed-selection objective restricted to
// parts[lo:hi] — one machine's local contribution in Lemma 10's
// converge-cast: the number of SSP failures, or −#wins when SSP is nil.
// Summing ScoreChunk over any partition of the participants gives the
// whole objective exactly (integer arithmetic, no rounding).
func (s *Step) ScoreChunk(st *State, parts []int32, prop Proposal, lo, hi int) int64 {
	if s.SSP != nil {
		var fails int64
		for _, v := range parts[lo:hi] {
			if !s.SSP(st, parts, prop, v) {
				fails++
			}
		}
		return fails
	}
	var wins int64
	for _, v := range parts[lo:hi] {
		if prop.Color[v] != d1lc.Uncolored {
			wins++
		}
	}
	return -wins
}

// Failures lists participants whose SSP fails under the proposal.
func (s *Step) Failures(st *State, parts []int32, prop Proposal) []int32 {
	if s.SSP == nil {
		return nil
	}
	var out []int32
	for _, v := range parts {
		if !s.SSP(st, parts, prop, v) {
			out = append(out, v)
		}
	}
	return out
}

// PostStats computes, for node v, the outcome of applying prop: whether v
// wins, and its live degree and slack afterwards. Slack is nondecreasing
// under any proposal: a winning neighbor removes one unit of degree and at
// most one palette color.
//
// The neighbor scan rides the proposal's win mask: a losing neighbor is
// rejected by one bit test (1/8 the memory traffic of loading its color),
// and the colors array is touched only at actual winners — the dominant
// case once proposals are sparse. The result is identical to scanning
// Color for the Uncolored sentinel, which the win-mask invariant
// guarantees.
func PostStats(st *State, prop Proposal, v int32) (won bool, liveDeg, slack int) {
	won = prop.Win.Test(int(v))
	liveDeg = st.LiveDegree(v)
	palLoss := 0
	var seenBuf [24]int32
	seen := seenBuf[:0]
	for _, u := range st.In.G.Neighbors(v) {
		if !prop.Win.Test(int(u)) || !st.Live(u) {
			continue
		}
		c := prop.Color[u]
		liveDeg--
		if !containsColor(seen, c) && st.HasRem(v, c) {
			palLoss++
			seen = append(seen, c)
		}
	}
	slack = len(st.Rem[v]) - palLoss - liveDeg
	return won, liveDeg, slack
}

// containsColor is the small-set membership scan PostStats uses in place of
// a per-call map: the distinct proposal colors around one node are few, and
// the seed-scoring loop calls PostStats once per participant per seed.
func containsColor(xs []int32, c int32) bool {
	for _, x := range xs {
		if x == c {
			return true
		}
	}
	return false
}

// Schedule is a pipeline of steps plus an optional deterministic finisher
// (e.g., leaders coloring put-aside sets locally, Algorithm 7 step 7).
type Schedule struct {
	Steps    []Step
	Finisher func(st *State)
}

// Tunables collects every constant of the pipeline. Zero values take the
// documented defaults. The paper's asymptotic settings (log⁷n low-degree
// threshold, ℓ = log^{2.1}Δ, smin = Ω(ℓ)) are reproduced structurally with
// magnitudes that remain meaningful at laptop-scale n — see DESIGN.md
// "Substitutions".
type Tunables struct {
	// LowDeg: nodes with degree below this are left to the low-degree
	// solver (paper: log⁷n). Default: max(8, ⌈(log₂ n)^1.5⌉).
	LowDeg int
	// TRCRounds: slack-amplification TryRandomColor rounds opening
	// SlackColor (paper: O(1); default 3).
	TRCRounds int
	// Smin: the s_min parameter of SlackColor (default 4).
	Smin int
	// Kappa: SlackColor's κ ∈ (1/smin, 1] (default 0.5).
	Kappa float64
	// Ell: the ℓ slackability threshold for low-slack cliques
	// (paper log^{2.1}Δ; default max(4, (log₂(Δ+2))^1.3)).
	Ell float64
	// PutAsideNum/Den: sampling probability for Algorithm 9
	// (paper ℓ²/(48Δ_C); default computed per clique, capped at 1/4).
	PutAsideDen int
	// SynchFailFrac: SSP tolerance for SynchColorTrial — a clique succeeds
	// if at most this fraction of its live inliers remain uncolored
	// (paper: O(t) with polylog t; default 0.5).
	SynchFailFrac float64
	// Vstart: the ε constants of Section 5.2.
	Vstart VstartOptions
	// ACD: decomposition constants.
	ACD acd.Options
}

// WithDefaults fills zero fields given the instance size and Δ.
func (t Tunables) WithDefaults(n, delta int) Tunables {
	if t.LowDeg == 0 {
		l := math.Ceil(math.Pow(math.Log2(float64(n+2)), 1.5))
		t.LowDeg = int(math.Max(8, l))
	}
	if t.TRCRounds == 0 {
		t.TRCRounds = 3
	}
	if t.Smin == 0 {
		t.Smin = 4
	}
	if t.Kappa == 0 {
		t.Kappa = 0.5
	}
	if t.Ell == 0 {
		t.Ell = math.Max(4, math.Pow(math.Log2(float64(delta+2)), 1.3))
	}
	if t.PutAsideDen == 0 {
		t.PutAsideDen = 4
	}
	if t.SynchFailFrac == 0 {
		t.SynchFailFrac = 0.5
	}
	t.Vstart = t.Vstart.withDefaults()
	return t
}

// maxPalette returns the largest initial palette size of the instance.
func maxPalette(in *d1lc.Instance) int {
	m := 1
	for _, p := range in.Palettes {
		if len(p) > m {
			m = len(p)
		}
	}
	return m
}

// liveFilter builds a Participants function selecting the live subset of a
// fixed base set.
func liveFilter(base []int32) func(st *State) []int32 {
	return func(st *State) []int32 {
		out := make([]int32, 0, len(base))
		for _, v := range base {
			if st.Live(v) {
				out = append(out, v)
			}
		}
		return out
	}
}

// --- Step builders ---------------------------------------------------------

func stepGenerateSlack(name string, base []int32, maxPal int) Step {
	return Step{
		Name:         name,
		Tau:          1,
		Bits:         GenerateSlackBits(maxPal),
		Participants: liveFilter(base),
		Propose:      GenerateSlackPropose,
	}
}

func stepTRC(name string, base []int32, maxPal int, ssp func(st *State, parts []int32, prop Proposal, v int32) bool) Step {
	return Step{
		Name:         name,
		Tau:          2,
		Bits:         TryRandomColorBits(maxPal),
		Participants: liveFilter(base),
		Propose:      TryRandomColorPropose,
		SSP:          ssp,
	}
}

func stepMultiTrial(name string, base []int32, x, maxPal int, thr float64) Step {
	return Step{
		Name:         name,
		Tau:          2,
		Bits:         MultiTrialBits(x, maxPal),
		Participants: liveFilter(base),
		Propose: func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
			return MultiTrialPropose(st, parts, x, src, sc)
		},
		SSP: func(st *State, parts []int32, prop Proposal, v int32) bool {
			if thr <= 0 {
				return true
			}
			won, liveDeg, slack := PostStats(st, prop, v)
			// Algorithm 2 lines 7/12: fail when the remaining degree
			// exceeds slack divided by the threshold, i.e. succeed when
			// liveDeg ≤ slack/thr.
			return won || float64(liveDeg)*thr <= float64(slack)
		},
	}
}

// SlackColorSchedule emits the Algorithm 2 step sequence for the base
// participant set: TRCRounds slack-amplification trials, the tower loop of
// MultiTrial(x_i) with x_i = 2↑↑i, the geometric loop with x_i = ρ^{iκ},
// and the final MultiTrial(ρ). The sequence has O(log* ρ + 1/κ) steps,
// matching Lemma 13's "series of O(log* Δ) normal procedures".
func SlackColorSchedule(name string, base []int32, maxPal int, tun Tunables) []Step {
	var steps []Step
	for r := 0; r < tun.TRCRounds; r++ {
		var ssp func(st *State, parts []int32, prop Proposal, v int32) bool
		if r == tun.TRCRounds-1 {
			// Algorithm 2 line 2: terminate (fail) when s(v) < 2d(v).
			ssp = func(st *State, parts []int32, prop Proposal, v int32) bool {
				won, liveDeg, slack := PostStats(st, prop, v)
				return won || liveDeg == 0 || slack >= 2*liveDeg
			}
		}
		steps = append(steps, stepTRC(fmt.Sprintf("%s/trc%d", name, r), base, maxPal, ssp))
	}
	rho := math.Pow(float64(tun.Smin), 1/(1+tun.Kappa))
	if rho < 2 {
		rho = 2
	}
	// Tower loop: x_i = 2↑↑i while x_i < ρ.
	x := 1.0
	for i := 0; ; i++ {
		xi := int(x)
		if xi < 1 {
			xi = 1
		}
		if xi > maxPal {
			xi = maxPal
		}
		thr := math.Min(math.Pow(2, math.Min(x, 30)), math.Pow(rho, tun.Kappa))
		for rep := 0; rep < 2; rep++ {
			steps = append(steps, stepMultiTrial(
				fmt.Sprintf("%s/mt-tower%d.%d(x=%d)", name, i, rep, xi), base, xi, maxPal, thr))
		}
		if x >= rho || x > 30 {
			break
		}
		x = math.Pow(2, x) // 2↑↑(i+1)
	}
	// Geometric loop: x_i = ρ^{iκ}, i = 1..⌈1/κ⌉.
	iMax := int(math.Ceil(1 / tun.Kappa))
	for i := 1; i <= iMax; i++ {
		xi := int(math.Ceil(math.Pow(rho, float64(i)*tun.Kappa)))
		if xi > maxPal {
			xi = maxPal
		}
		thr := math.Min(math.Pow(rho, float64(i+1)*tun.Kappa), rho)
		for rep := 0; rep < 3; rep++ {
			steps = append(steps, stepMultiTrial(
				fmt.Sprintf("%s/mt-geo%d.%d(x=%d)", name, i, rep, xi), base, xi, maxPal, thr))
		}
	}
	// Final MultiTrial(ρ): success means colored.
	xFinal := int(math.Ceil(rho))
	if xFinal > maxPal {
		xFinal = maxPal
	}
	final := stepMultiTrial(fmt.Sprintf("%s/mt-final(x=%d)", name, xFinal), base, xFinal, maxPal, 0)
	final.SSP = func(st *State, parts []int32, prop Proposal, v int32) bool {
		return prop.Color[v] != d1lc.Uncolored
	}
	steps = append(steps, final)
	return steps
}
