package hknt

import (
	"slices"
	"sync"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/rng"
)

// recordingSource wraps a RandSource and records every node whose bits
// are requested. Propose fans out over workers, so recording is locked.
type recordingSource struct {
	src RandSource
	mu  sync.Mutex
	got map[int32]bool
}

func (r *recordingSource) BitsFor(v int32) *rng.Bits {
	r.mu.Lock()
	r.got[v] = true
	r.mu.Unlock()
	return r.src.BitsFor(v)
}

// TestProposeReadsOnlyDeclaredReaders pins Step.Readers' contract on the
// production schedule: every node whose bits Propose reads is in
// Readers(st), or in the participants when Readers is nil. The scoring
// engine expands only those nodes' PRG chunks per seed, so a step that
// read an undeclared node would score stale bits. The schedule is driven
// the way deframe drives it — apply the proposal, defer SSP failures —
// so later steps see realistic states.
func TestProposeReadsOnlyDeclaredReaders(t *testing.T) {
	cases := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 12, 2))},
		{"mixed", d1lc.TrivialPalettes(graph.Mixed(150, 5))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2} {
				st := NewState(tc.in)
				build := BuildColorMiddle(st, Tunables{LowDeg: 4})
				declaredReads := 0
				for i := range build.Schedule.Steps {
					step := &build.Schedule.Steps[i]
					parts := step.Participants(st)
					if len(parts) == 0 {
						continue // the derandomizer skips empty steps
					}
					allowed, what := parts, "participants"
					if step.Readers != nil {
						allowed, what = step.Readers(st), "Readers"
					}
					ok := make(map[int32]bool, len(allowed))
					for _, v := range allowed {
						ok[v] = true
					}
					rec := &recordingSource{
						src: FreshSource{Root: seed, Round: uint64(i), Bits: step.Bits},
						got: map[int32]bool{},
					}
					prop := step.Propose(st, parts, rec, nil)
					var stray []int32
					for v := range rec.got {
						if !ok[v] {
							stray = append(stray, v)
						}
					}
					if len(stray) > 0 {
						slices.Sort(stray)
						t.Fatalf("seed %d step %d (%s): Propose read nodes %v outside its %s (%d nodes)",
							seed, i, step.Name, stray, what, len(allowed))
					}
					if step.Readers != nil {
						declaredReads += len(rec.got)
					}
					failures := step.Failures(st, parts, prop)
					st.Apply(prop)
					for _, v := range failures {
						if st.Live(v) {
							st.Defer(v)
						}
					}
				}
				if declaredReads == 0 {
					t.Fatalf("seed %d: no step with declared Readers read any bits; the check is vacuous", seed)
				}
			}
		})
	}
}
